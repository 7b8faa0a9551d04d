package ccnic_test

import (
	"testing"

	"ccnic"
	"ccnic/internal/experiments"
	"ccnic/internal/sim"
)

// TestEndToEndDeterminism runs an identical full-stack workload twice and
// requires bit-identical results — the property that makes every experiment
// in this repository reproducible.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() (float64, sim.Time, sim.Time) {
		tb := ccnic.NewTestbed(ccnic.Config{
			Platform: "ICX", Interface: ccnic.CCNIC, Queues: 4, HostPrefetch: true,
		})
		res := tb.RunLoopback(ccnic.LoopbackOptions{
			PktSize: 64, Window: 64,
			Warmup: 20 * sim.Microsecond, Measure: 60 * sim.Microsecond,
		})
		return res.PPS, res.Latency.Median(), res.Latency.Max()
	}
	p1, m1, x1 := run()
	p2, m2, x2 := run()
	if p1 != p2 || m1 != m2 || x1 != x2 {
		t.Fatalf("runs diverged: (%v,%v,%v) vs (%v,%v,%v)", p1, m1, x1, p2, m2, x2)
	}
}

// TestExperimentOutputDeterminism runs every registered experiment twice in
// quick mode — the quick suite's only full pass in tier-1. The first run's
// report must be well-formed (the <id>/report subtest): its own ID, some
// output, and every series and table non-empty with no negative point. Then
// it renders both runs' sections exactly as ccbench prints them. The two must
// match each other — bit-identical text, not just headline numbers — and
// match the committed quick transcript, experiments_quick.txt, through the
// section differ ccbench -golden uses. After an intentional model change,
// regenerate the goldens with `make golden`.
func TestExperimentOutputDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice")
	}
	golden := quickGolden(t)
	exps := experiments.All()
	if len(golden) != len(exps) {
		t.Errorf("experiments_quick.txt has %d sections, registry has %d experiments; run make golden",
			len(golden), len(exps))
	}
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			r := e.Run(experiments.Options{Quick: true})
			// The report's own pass/fail line tells a malformed report
			// apart from output drift.
			t.Run("report", func(t *testing.T) {
				if r.ID != e.ID {
					t.Errorf("report ID %q != experiment ID %q", r.ID, e.ID)
				}
				if len(r.Groups) == 0 && len(r.Tables) == 0 {
					t.Errorf("experiment produced no output")
				}
				for _, g := range r.Groups {
					for _, s := range g.Series {
						if len(s.Points) == 0 {
							t.Errorf("series %q has no points", s.Name)
						}
						for _, pt := range s.Points {
							if pt.Y < 0 {
								t.Errorf("series %q has negative value %v", s.Name, pt.Y)
							}
						}
					}
				}
				for _, tb := range r.Tables {
					if len(tb.Rows) == 0 {
						t.Errorf("table %q has no rows", tb.Name)
					}
				}
			})
			s1 := experiments.Section(e, r)
			first := experiments.Golden{e.ID: s1}
			if err := first.Diff(e.ID, experiments.Section(e, e.Run(experiments.Options{Quick: true}))); err != nil {
				t.Fatalf("two quick runs produced different output: %v", err)
			}
			if err := golden.Diff(e.ID, s1); err != nil {
				t.Errorf("experiments_quick.txt: %v\nif the model change is intentional, run make golden", err)
			}
		})
	}
}

// quickGolden reads the committed quick transcript, experiments_quick.txt:
// UPI, fault-free runs.
func quickGolden(t *testing.T) experiments.Golden {
	golden, err := experiments.ReadGolden("experiments_quick.txt")
	if err != nil {
		t.Fatalf("read the quick golden: %v", err)
	}
	return golden
}

// TestDefaultsReachTestbedExperiments runs quick table2, ext-event and
// ext-netfn under the CXL backend and then under an armed fault plan, set
// the way ccbench's -protocol and -faults flags set them. Each output must
// differ from its committed UPI, fault-free section in experiments_quick.txt:
// an experiment that builds its testbed past experiments.Options silently
// ignores both settings.
func TestDefaultsReachTestbedExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three quick experiments twice")
	}
	golden := quickGolden(t)
	const spec = "seed=1,all=0.02"
	plan, err := ccnic.ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opt  experiments.Options
	}{
		{"-protocol cxl", experiments.Options{Quick: true, Protocol: "cxl"}},
		{"-faults " + spec, experiments.Options{Quick: true, Faults: plan}},
	} {
		for _, id := range []string{"table2", "ext-event", "ext-netfn"} {
			e := experiments.ByID(id)
			if golden.Diff(id, experiments.Section(e, e.Run(c.opt))) == nil {
				t.Errorf("%s under %s printed its committed UPI, fault-free output", id, c.name)
			}
		}
	}
}

// TestDeterminismAcrossInterfaces covers the PCIe pipeline too.
func TestDeterminismAcrossInterfaces(t *testing.T) {
	for _, iface := range []ccnic.Interface{ccnic.UnoptUPI, ccnic.E810} {
		iface := iface
		run := func() float64 {
			tb := ccnic.NewTestbed(ccnic.Config{Platform: "ICX", Interface: iface, Queues: 2})
			res := tb.RunLoopback(ccnic.LoopbackOptions{
				PktSize: 256, Window: 32,
				Warmup: 20 * sim.Microsecond, Measure: 40 * sim.Microsecond,
			})
			return res.PPS
		}
		if a, b := run(), run(); a != b {
			t.Errorf("%v: runs diverged: %v vs %v", iface, a, b)
		}
	}
}
