package rpcstack

import (
	"strings"
	"testing"

	"ccnic/internal/coherence"
	"ccnic/internal/device"
	"ccnic/internal/loopback"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// TestWedgedQueueStallError: fault-free, a TX queue that never accepts a
// packet must surface as a *StallError naming the queue, not as a silent
// zero-throughput run.
func TestWedgedQueueStallError(t *testing.T) {
	sys := coherence.NewSystem(sim.New(), platform.ICX())
	fps := []*coherence.Agent{sys.NewAgent(0, "fp")}
	dev := device.NewStub(sys, fps, func(*sim.Proc, int) bool { return false })
	defer func() {
		se, ok := recover().(*loopback.StallError)
		if !ok {
			t.Fatal("Run completed without a *StallError panic")
		}
		if se.Queue != 0 || se.Pending == 0 || se.Stalled < loopback.StallAfter {
			t.Errorf("StallError fields: %+v", se)
		}
		if msg := se.Error(); !strings.Contains(msg, "rpcstack: queue 0") {
			t.Errorf("error message does not name the run and queue: %q", msg)
		}
	}()
	Run(Config{Sys: sys, Dev: dev, FastPath: fps, App: sys.NewAgent(0, "app"),
		RatePerQueue: 1e6, Warmup: sim.Microsecond, Measure: 2 * loopback.StallAfter})
}
