package kvstore

import (
	"strings"
	"testing"

	"ccnic/internal/coherence"
	"ccnic/internal/device"
	"ccnic/internal/fault"
	"ccnic/internal/loopback"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
	"ccnic/internal/traffic"
)

// wedgeConfig runs one server on a stub NIC whose RX side delivers
// requests normally but whose TX side never accepts a packet: the
// pathological stall the in-flight window watchdog exists to diagnose.
func wedgeConfig(sys *coherence.System, h *coherence.Agent) Config {
	return Config{
		Sys:          sys,
		Dev:          device.NewStub(sys, []*coherence.Agent{h}, func(*sim.Proc, int) bool { return false }),
		Hosts:        []*coherence.Agent{h},
		Store:        NewStore(sys, 0, 1000, traffic.FixedSize(256)),
		Seed:         1,
		RatePerQueue: 1e6,
		Warmup:       sim.Microsecond,
		Measure:      40 * sim.Microsecond,
	}
}

// TestStallWatchdogNamesWedgedQueue: a TX path that never accepts a
// packet must surface as a diagnosable *StallError naming the queue, not
// as a silent zero-throughput run.
func TestStallWatchdogNamesWedgedQueue(t *testing.T) {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	h := sys.NewAgent(0, "srv")
	cfg := wedgeConfig(sys, h)
	cfg.Measure = 2 * loopback.StallAfter // long enough for the watchdog

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run completed silently; want a *StallError panic")
		}
		se, ok := r.(*loopback.StallError)
		if !ok {
			t.Fatalf("panic value %T (%v), want *StallError", r, r)
		}
		if se.Queue != 0 || se.Pending == 0 || se.Stalled < loopback.StallAfter {
			t.Errorf("StallError fields: %+v", se)
		}
		if msg := se.Error(); !strings.Contains(msg, "queue 0") || !strings.Contains(msg, "stalled") {
			t.Errorf("error message not diagnosable: %q", msg)
		}
	}()
	Run(cfg)
}

// TestStallDegradedModeUnderFaults: with a fault plan armed, the same
// wedge is handled by the bounded-retry budget instead — responses time
// out and drop, the run completes, and the recovery counters record it.
func TestStallDegradedModeUnderFaults(t *testing.T) {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	h := sys.NewAgent(0, "srv")
	plan, err := fault.ParsePlan("seed=3,stall=0.001")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(plan, 0)
	sys.SetFaults(inj)
	cfg := wedgeConfig(sys, h)

	res := Run(cfg) // must not panic: degraded mode drops, run survives
	if res.OpsPerSec != 0 {
		t.Errorf("wedge device transmitted? OpsPerSec=%v", res.OpsPerSec)
	}
	st := inj.Stats()
	if st.Drops == 0 {
		t.Error("no degraded-mode drops recorded despite a wedged TX path")
	}
	if st.Backoffs == 0 {
		t.Error("no backoffs recorded despite retries")
	}
}
