package ccnic_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
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
// it hashes the normalized
// printed output of both runs (exactly what ccbench -hashes computes). The
// two must match each other — bit-identical text, not just headline
// numbers — and match the hashes committed in experiments_quick_hashes.json.
// After an intentional model change, regenerate the committed hashes with
// `make golden`.
func TestExperimentOutputDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice")
	}
	golden := committedHashes(t)
	exps := experiments.All()
	if len(golden) != len(exps) {
		t.Errorf("committed hash file has %d entries, registry has %d experiments; run make golden",
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
			h1, h2 := sectionHash(e, r), sectionHash(e, e.Run(experiments.Options{Quick: true}))
			if h1 != h2 {
				t.Fatalf("two quick runs produced different output: %s vs %s", h1, h2)
			}
			want, ok := golden[e.ID]
			if !ok {
				t.Fatalf("no committed hash for %s; run make golden", e.ID)
			}
			if h1 != want {
				t.Errorf("output hash %s differs from committed %s; if the model change is intentional, run make golden", h1, want)
			}
		})
	}
}

// committedHashes reads the quick-suite hashes committed in
// experiments_quick_hashes.json: UPI, fault-free runs.
func committedHashes(t *testing.T) map[string]string {
	buf, err := os.ReadFile("experiments_quick_hashes.json")
	if err != nil {
		t.Fatalf("read committed hashes: %v", err)
	}
	golden := make(map[string]string)
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatalf("parse committed hashes: %v", err)
	}
	return golden
}

// sectionHash hashes an experiment's normalized printed output, exactly as
// ccbench -hashes computes it.
func sectionHash(e *experiments.Experiment, r *experiments.Report) string {
	norm := experiments.Normalize(experiments.Section(e, r))
	return fmt.Sprintf("%x", sha256.Sum256([]byte(norm)))
}

// TestDefaultsReachTestbedExperiments runs quick table2, ext-event and
// ext-netfn under the CXL backend and then under an armed fault plan, set
// the way ccbench's -protocol and -faults flags set them. Each output must
// differ from its committed UPI, fault-free hash: an experiment that builds
// its testbed past experiments.Options silently ignores both settings.
func TestDefaultsReachTestbedExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three quick experiments twice")
	}
	golden := committedHashes(t)
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
			if sectionHash(e, e.Run(c.opt)) == golden[id] {
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
