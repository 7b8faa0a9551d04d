package ccnic_test

import (
	"fmt"
	"testing"

	"ccnic"
	"ccnic/internal/coherence"
	"ccnic/internal/device"
	"ccnic/internal/mem"
	"ccnic/internal/ring"
	"ccnic/internal/sim"
)

// nopProbe is a validation probe that checks nothing. Installing it keeps
// idle NIC cores from dozing and changes nothing else.
type nopProbe struct{}

func (nopProbe) LineEvent(mem.Addr)              {}
func (nopProbe) ObjectEvent(coherence.Checkable) {}
func (nopProbe) Fail(error)                      {}

// TestDozingMatchesProbed runs every coherent ring a NIC core polls — the
// inline Grouped, Packed and Padded layouts with NIC- and host-managed
// buffers, and the register ring — on six SPR queues, closed loop and open
// loop, under UPI and CXL, once as users run it and once under a no-op
// validation probe, which keeps the cores from dozing. Under load a
// producer's publish often lands while the core's copy of the polled line
// is already back in its L2 (the store's RFO invalidated it and the core
// re-fetched it before the publish), so only the ring's watch can end the
// doze; any wake the doze misses moves these runs apart.
func TestDozingMatchesProbed(t *testing.T) {
	layout := func(l ring.Layout) *device.UPIConfig {
		u := device.CCNICConfig()
		u.Layout = l
		return &u
	}
	hostMgmt := device.CCNICConfig()
	hostMgmt.NICBufMgmt, hostMgmt.SharedPool = false, false
	opt := ccnic.LoopbackOptions{PktSize: 64, Window: 128,
		Warmup: 10 * sim.Microsecond, Measure: 20 * sim.Microsecond}
	for _, tc := range []struct {
		name  string
		iface ccnic.Interface
		upi   *device.UPIConfig
	}{
		{"grouped", ccnic.CCNIC, nil},
		{"packed", ccnic.CCNIC, layout(ring.Packed)},
		{"padded", ccnic.CCNIC, layout(ring.Padded)},
		{"hostmgmt", ccnic.CCNIC, &hostMgmt},
		{"unopt", ccnic.UnoptUPI, nil},
	} {
		for _, proto := range []string{"UPI", "CXL"} {
			for _, rate := range []float64{0, 2e6, 8e6} {
				t.Run(fmt.Sprintf("%s/%s/%g", tc.name, proto, rate), func(t *testing.T) {
					var runs [2]coherentRun
					for i := range runs {
						tb := ccnic.NewTestbed(ccnic.Config{Platform: "SPR", Interface: tc.iface,
							UPI: tc.upi, Protocol: proto, Queues: 6, HostPrefetch: true})
						if i == 1 {
							tb.Sys.SetProbe(nopProbe{})
						}
						o := opt
						o.Rate = rate
						res := tb.RunLoopback(o)
						runs[i] = coherentRunOf(tb, &res)
					}
					if runs[0] != runs[1] {
						t.Errorf("dozing run %+v\nprobed run %+v", runs[0], runs[1])
					}
				})
			}
		}
	}
}
