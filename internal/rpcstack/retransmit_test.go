package rpcstack

import (
	"testing"

	"ccnic/internal/coherence"
	"ccnic/internal/device"
	"ccnic/internal/fault"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

func flakyRun(t *testing.T, acceptEvery int) (Result, *fault.Stats) {
	t.Helper()
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	plan, err := fault.ParsePlan("seed=2,stall=0.001")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(plan, 0)
	sys.SetFaults(inj)
	fps := []*coherence.Agent{sys.NewAgent(0, "fp")}
	app := sys.NewAgent(0, "app")
	// The queue accepts a TX burst only on every acceptEvery-th attempt
	// (0 = never), wedging it harder than the real device models ever do.
	calls := 0
	dev := device.NewStub(sys, fps, func(*sim.Proc, int) bool {
		calls++
		return acceptEvery != 0 && calls%acceptEvery == 0
	})
	res := Run(Config{
		Sys: sys, Dev: dev, FastPath: fps, App: app,
		RatePerQueue: 10e6,
		Warmup:       5 * sim.Microsecond,
		Measure:      60 * sim.Microsecond,
	})
	return res, inj.Stats()
}

// TestRetransmitRecovers: a queue that accepts only every 6th attempt
// forces the retransmission timer through several backoffs per burst,
// and the workload still makes end-to-end progress.
func TestRetransmitRecovers(t *testing.T) {
	res, st := flakyRun(t, 6)
	if res.OpsPerSec == 0 {
		t.Error("no throughput despite eventual TX acceptance")
	}
	if st.Retransmits == 0 {
		t.Error("no retransmissions recorded")
	}
	if st.Backoffs == 0 {
		t.Error("no backoffs recorded")
	}
	if st.Drops != 0 {
		t.Errorf("%d drops despite every burst eventually succeeding within the budget", st.Drops)
	}
}

// TestRetransmitDegradedMode: a permanently wedged queue must not hang
// the fast path — the backoff budget runs out, the remainder is dropped,
// and the run completes.
func TestRetransmitDegradedMode(t *testing.T) {
	res, st := flakyRun(t, 0)
	if res.OpsPerSec != 0 {
		t.Errorf("wedged queue transmitted? OpsPerSec=%v", res.OpsPerSec)
	}
	if st.Drops == 0 {
		t.Error("no degraded-mode drops recorded")
	}
	if st.Backoffs == 0 {
		t.Error("no backoffs recorded")
	}
}
