package ccnic_test

import (
	"testing"

	"ccnic"
	"ccnic/internal/sim"
)

// windowTail bounds how far past the window's end a run may go: the
// longest final iteration of a workload process, which starts before End
// and finishes after it. The longest measured over loopback (closed and
// open loop, 64 B and 1500 B), forwarding, KV and RPC runs on every
// interface at 1, 2 and 4 queues was 8.96 us: a closed-loop CC-NIC 1500 B
// generator's last TX and RX bursts.
const windowTail = 10 * sim.Microsecond

// TestRunEndsWithWindow: the last workload process stops the device, so
// every run drains just after its window instead of polling idle to the
// Finish backstop (End plus ten warm-ups, 100 us here).
func TestRunEndsWithWindow(t *testing.T) {
	const warmup, measure = 10 * sim.Microsecond, 30 * sim.Microsecond
	lb := ccnic.LoopbackOptions{PktSize: 1500, Warmup: warmup, Measure: measure}
	fwd := lb
	fwd.Rate = 3e6
	kv := ccnic.KVOptions{Keys: 2000, RatePerQueue: 40e6, Seed: 1, Warmup: warmup, Measure: measure}
	for _, tc := range []struct {
		name  string
		iface ccnic.Interface
		run   func(*ccnic.Testbed)
	}{
		{"Loopback/CCNIC", ccnic.CCNIC, func(tb *ccnic.Testbed) { tb.RunLoopback(lb) }},
		{"Loopback/E810", ccnic.E810, func(tb *ccnic.Testbed) { tb.RunLoopback(lb) }},
		{"Forward/CX6", ccnic.CX6, func(tb *ccnic.Testbed) { tb.RunForward(fwd) }},
		{"KVStore/CX6", ccnic.CX6, func(tb *ccnic.Testbed) { tb.RunKVStore(kv) }},
		{"KVStore/Overlay", ccnic.OverlayCCNIC, func(tb *ccnic.Testbed) { tb.RunKVStore(kv) }},
		{"RPC/CCNIC", ccnic.CCNIC, func(tb *ccnic.Testbed) {
			tb.RunRPC(ccnic.RPCOptions{RatePerQueue: 20e6, Warmup: warmup, Measure: measure})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := ccnic.NewTestbed(ccnic.Config{Platform: "ICX", Interface: tc.iface, Queues: 2,
				OverlayThreads: 4, HostPrefetch: true})
			tc.run(tb)
			// A fresh testbed starts its window at t=0.
			end := warmup + measure
			if live := tb.Kernel.Live(); live != 0 {
				t.Errorf("%d processes still live after the run", live)
			}
			if now := tb.Kernel.Now(); now < end || now > end+windowTail {
				t.Errorf("run ended at t=%v, want within %v after the window's end at t=%v", now, windowTail, end)
			}
		})
	}
}
