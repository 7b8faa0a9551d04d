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
// goroutines behind: the kernel releases its pooled coroutines when a run
// drains, so an abandoned testbed does not pin its kernel. A cluster run
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
