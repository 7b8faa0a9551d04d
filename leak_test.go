package ccnic

import (
	"runtime"
	"testing"
	"time"

	"ccnic/internal/cluster"
	"ccnic/internal/sim"
)

// settledGoroutines returns the goroutine count once exiting goroutines
// have been reaped, polling briefly for it to fall to want.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRunsReleaseCoroutines checks that a finished testbed run leaves no
// goroutines behind: each process's coroutine ends when its body returns,
// so an abandoned testbed does not pin its kernel. A cluster run
// stops at its horizon with its daemons still live, so its shard kernels
// keep their coroutines until Close; after that, nothing else remains,
// including the shard engine's workers.
func TestRunsReleaseCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, iface := range []Interface{CCNIC, UnoptUPI, E810} {
		tb := NewTestbed(Config{Platform: "ICX", Interface: iface, Queues: 2, HostPrefetch: true})
		tb.RunLoopback(LoopbackOptions{PktSize: 64, Window: 32,
			Warmup: 5 * sim.Microsecond, Measure: 20 * sim.Microsecond})
		if live := tb.Kernel.Live(); live != 0 {
			t.Errorf("%v: %d processes still live after the run", iface, live)
		}
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after the testbed runs, want the baseline %d", n, base)
	}

	c := cluster.New(cluster.Config{Hosts: 3, Workers: 2})
	if err := c.Run(40 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after the cluster run, want the baseline %d", n, base)
	}
}

// TestLoopbackAllocsPerPacket pins the host's allocations on the headline
// point, ICX CC-NIC on 8 queues with 64 B packets and a window of 128:
// RunLoopback, bracketed by the runtime's malloc count, must allocate fewer
// than one object per packet received in its measured window. What it
// allocates is first-touch state (directory slots, cache entries, sharer
// arrays, buffer carving) and the run's scaffolding, not per-packet work.
func TestLoopbackAllocsPerPacket(t *testing.T) {
	tb := NewTestbed(Config{Platform: "ICX", Interface: CCNIC, Queues: 8, HostPrefetch: true})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := tb.RunLoopback(LoopbackOptions{PktSize: 64, Window: 128,
		Warmup: 20 * sim.Microsecond, Measure: 30 * sim.Microsecond})
	runtime.ReadMemStats(&after)
	pkts := res.Latency.Count()
	if pkts == 0 {
		t.Fatal("the run received no packets")
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(pkts)
	t.Logf("%d allocations over %d received packets: %.3f per packet", after.Mallocs-before.Mallocs, pkts, per)
	if per >= 1 {
		t.Errorf("RunLoopback allocates %.3f objects per received packet, want fewer than 1", per)
	}
}
