package loopback

import (
	"strings"
	"testing"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/device"
	"ccnic/internal/fault"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// wedgedStub builds a one-queue stub NIC whose TX side never accepts.
func wedgedStub() (*coherence.System, *device.Stub, []*coherence.Agent) {
	sys := coherence.NewSystem(sim.New(), platform.ICX())
	hosts := []*coherence.Agent{sys.NewAgent(0, "h")}
	return sys, device.NewStub(sys, hosts, func(*sim.Proc, int) bool { return false }), hosts
}

// TestForwardWedgedQueuePanics: a fault-free forwarding run over a queue
// that never transmits must fail with a *StallError naming the queue, not
// run silently to a zero forwarded rate.
func TestForwardWedgedQueuePanics(t *testing.T) {
	sys, dev, hosts := wedgedStub()
	defer func() {
		se, ok := recover().(*StallError)
		if !ok {
			t.Fatal("RunForward completed without a *StallError panic")
		}
		if se.Queue != 0 || se.Pending == 0 || se.Stalled < StallAfter {
			t.Errorf("StallError fields: %+v", se)
		}
		if msg := se.Error(); !strings.Contains(msg, "loopback: queue 0") {
			t.Errorf("error message does not name the run and queue: %q", msg)
		}
	}()
	RunForward(Config{Sys: sys, Dev: dev, Hosts: hosts, PktSize: 64, Rate: 1e6,
		Warmup: sim.Microsecond, Measure: 2 * StallAfter})
}

// TestWedgedProcessPanics: a window process that never returns keeps the
// device running to Finish's backstop, where Finish must fail with a
// *WedgeError naming that process, not return a run that never ended.
func TestWedgedProcessPanics(t *testing.T) {
	sys, dev, hosts := wedgedStub()
	w := &Window{Name: "wedge", Sys: sys, Dev: dev, Hosts: len(hosts), Measure: 20 * sim.Microsecond}
	w.Start()
	w.Go("done0", func(p *sim.Proc) { p.Sleep(w.End - p.Now()) })
	w.Go("spin0", func(p *sim.Proc) {
		for {
			p.Sleep(pushPoll)
		}
	})
	defer func() {
		we, ok := recover().(*WedgeError)
		if !ok {
			t.Fatal("Finish returned with a window process still live")
		}
		if want := w.End + backstop*w.Warmup; we.At != want || len(we.Procs) != 1 {
			t.Errorf("WedgeError fields: %+v, want spin0 alone at t=%v", we, want)
		}
		if msg := we.Error(); !strings.Contains(msg, `wedge: window processes ["spin0"]`) {
			t.Errorf("error message does not name the run and process: %q", msg)
		}
	}()
	w.Finish()
}

// TestOversizedPacketPanics: a packet larger than the host buffers would
// write past its buffer, so both host workloads refuse it up front and
// name both sizes.
func TestOversizedPacketPanics(t *testing.T) {
	for name, run := range map[string]func(Config){
		"Run":        func(c Config) { Run(c) },
		"RunForward": func(c Config) { c.Rate = 1e6; RunForward(c) },
	} {
		t.Run(name, func(t *testing.T) {
			sys, dev, hosts := testbed(t, 1, device.CCNICConfig())
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "16384-byte packets") || !strings.Contains(msg, "4096-byte host buffers") {
					t.Errorf("panic %q does not name both sizes", msg)
				}
			}()
			run(Config{Sys: sys, Dev: dev, Hosts: hosts, PktSize: 16384})
		})
	}
}

// TestPushBackoffBudget drives Push directly under an armed plan: a queue
// that accepts only every third attempt costs two backoffs and one credit
// per burst, and a queue that never accepts drops the burst after exactly
// Budget backoffs.
func TestPushBackoffBudget(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		acceptEvery             int
		backoffs, credits, drop int64
	}{
		{"recovers", 3, 2, 1, 0},
		{"times out", 0, 3, 0, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := coherence.NewSystem(sim.New(), platform.ICX())
			plan, err := fault.ParsePlan("seed=1,stall=0.001")
			if err != nil {
				t.Fatal(err)
			}
			sys.SetFaults(fault.NewInjector(plan, 0))
			hosts := []*coherence.Agent{sys.NewAgent(0, "h")}
			calls := 0
			dev := device.NewStub(sys, hosts, func(*sim.Proc, int) bool {
				calls++
				return tc.acceptEvery != 0 && calls%tc.acceptEvery == 0
			})
			w := &Window{Name: "push", Sys: sys, Dev: dev, Hosts: 1, Measure: 50 * sim.Microsecond}
			w.Start()
			var credits int64
			b := Backoff{Budget: 3, Credit: func(*fault.Stats) { credits++ }}
			q := dev.Queue(0)
			sent := -1
			w.Go("push", func(p *sim.Proc) {
				bufs := make([]*bufpool.Buf, 4)
				if n := q.Port().AllocBurst(p, 64, bufs); n != len(bufs) {
					t.Errorf("allocated %d of %d buffers", n, len(bufs))
				}
				sent = w.Push(p, q, 0, bufs, b)
				q.Port().FreeBurst(p, bufs[sent:])
			})
			w.Finish()
			st := sys.Faults().Stats()
			if want := 4 - int(tc.drop); sent != want {
				t.Errorf("sent %d, want %d", sent, want)
			}
			if st.Backoffs != tc.backoffs || credits != tc.credits || st.Drops != tc.drop {
				t.Errorf("backoffs %d credits %d drops %d, want %d %d %d",
					st.Backoffs, credits, st.Drops, tc.backoffs, tc.credits, tc.drop)
			}
		})
	}
}

// TestRetryTxBacksOff drives retryTx, which no built-in device reaches: a
// stub under an armed plan refuses the first burst on its first offer and
// all four re-offers, then takes the second burst at once and the third on
// its first re-offer. The refused burst's buffers go back to the pool, the
// backoff and retry counters advance, and no StallError is raised.
func TestRetryTxBacksOff(t *testing.T) {
	sys := coherence.NewSystem(sim.New(), platform.ICX())
	plan := fault.Plan{Seed: 1}
	plan.Rate[fault.DoorbellDrop] = 0.5 // armed; nothing here consults it
	sys.SetFaults(fault.NewInjector(&plan, 0))
	hosts := []*coherence.Agent{sys.NewAgent(0, "h")}
	calls := 0
	dev := device.NewStub(sys, hosts, func(*sim.Proc, int) bool {
		calls++
		return calls == 6 || calls == 8
	})
	res := Run(Config{Sys: sys, Dev: dev, Hosts: hosts, PktSize: 64, Window: 64,
		Warmup: sim.Microsecond, Measure: 20 * sim.Microsecond})
	st := sys.Faults().Stats()
	if st.Backoffs != 5 || st.Retries != 1 {
		t.Errorf("backoffs %d, retries %d; want 5 and 1", st.Backoffs, st.Retries)
	}
	if calls != 8 {
		t.Errorf("the stub saw %d TX offers, want 8", calls)
	}
	if sent := dev.TxCount(0); sent != 64 {
		t.Errorf("the stub took %d packets, want 64 (two bursts)", sent)
	}
	if res.Dropped != 64 {
		t.Errorf("dropped %d, want the 64 taken and never looped back", res.Dropped)
	}
	// The stub frees what it takes, so every buffer is free again only if
	// the run freed the refused burst.
	free := 0
	sys.Kernel().Spawn("drain", func(p *sim.Proc) {
		for dev.Queue(0).Port().Alloc(p, 64) != nil {
			free++
		}
	})
	if err := sys.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	if free != 1024 {
		t.Errorf("%d of the stub's 1024 buffers are free after the run", free)
	}
}

// TestForwardNeedsIngress: forwarding with no ingress rate would measure
// nothing, so RunForward refuses a Rate of zero or less up front.
func TestForwardNeedsIngress(t *testing.T) {
	for _, rate := range []float64{0, -1} {
		sys, dev, hosts := testbed(t, 1, device.CCNICConfig())
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "forwarding needs ingress") {
					t.Errorf("Rate %v: panic %q, want one naming the missing ingress", rate, msg)
				}
			}()
			RunForward(Config{Sys: sys, Dev: dev, Hosts: hosts, PktSize: 64, Rate: rate})
		}()
	}
}
