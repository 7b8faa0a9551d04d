package prop

import (
	"strings"
	"testing"

	"ccnic/internal/coherence"
)

// TestScenariosDeterministicAndClean runs each generated scenario twice and
// asserts (a) the invariant engine found nothing, and (b) the two runs are
// bit-identical down to throughput bits, latency quantiles, and total event
// count — the determinism contract every experiment relies on.
func TestScenariosDeterministicAndClean(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario sweep")
	}
	covered := map[string]bool{}
	for seed := int64(1); seed <= 12; seed++ {
		sc := Generate(seed)
		covered[sc.Iface] = true
		covered[sc.Workload] = true
		t.Run(sc.String(), func(t *testing.T) {
			t.Parallel()
			a := sc.Run(coherence.MutateNone, 1<<18)
			b := sc.Run(coherence.MutateNone, 1<<18)
			if len(a.Violations) != 0 {
				t.Fatalf("invariant violations in a clean run: %v", a.Violations)
			}
			if a.Fingerprint != b.Fingerprint {
				t.Fatalf("nondeterministic:\n run1: %s\n run2: %s", a.Fingerprint, b.Fingerprint)
			}
			if a.Checks == 0 {
				t.Error("engine performed no checks")
			}
			if a.SimEvents == 0 {
				t.Error("simulation ran no events")
			}
		})
	}
	// The 12-seed sweep must exercise both workloads and several design
	// points, or the generator has collapsed.
	if !covered["loopback"] || !covered[IfaceCCNIC] {
		t.Errorf("generator coverage collapsed: %v", covered)
	}
}

// TestEngineThrottleInvariance: the full-scan cadence must not perturb the
// simulation — only how often the engine looks. The scenario runs about
// 7,000 events, so the aggressive cadence scans several times mid-run and
// the lazy one only at the run's end.
func TestEngineThrottleInvariance(t *testing.T) {
	sc := Generate(3)
	a := sc.Run(coherence.MutateNone, 1<<10)
	b := sc.Run(coherence.MutateNone, 1<<20)
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("scan cadence changed the simulation:\n fast: %s\n slow: %s", a.Fingerprint, b.Fingerprint)
	}
	if a.Checks <= b.Checks {
		t.Errorf("aggressive cadence ran %d checks, lazy ran %d; expected more", a.Checks, b.Checks)
	}
}

// TestMutationCaughtAcrossScenarios arms the stale-migration defect and
// asserts the engine catches it on every coherent-interface scenario the
// generator produces, regardless of layout or pool knobs — the randomized
// extension of the engine's directed self-test.
func TestMutationCaughtAcrossScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario sweep")
	}
	tested := 0
	for seed := int64(1); seed <= 40 && tested < 5; seed++ {
		sc := Generate(seed)
		// The defect lives in the migratory-read path, which PCIe DMA
		// interfaces do not take; the coherent design points do,
		// constantly, through descriptor and signal lines. CXL has no
		// migration, so the UPI backend is pinned (the CXL defects have
		// their own sweep in protocol_test.go).
		if sc.Iface != IfaceCCNIC || sc.Workload != "loopback" {
			continue
		}
		sc.Protocol = "UPI"
		tested++
		t.Run(sc.String(), func(t *testing.T) {
			t.Parallel()
			out := sc.Run(coherence.MutateStaleMigration, 1<<12)
			if len(out.Violations) == 0 {
				t.Fatal("mutated run produced no violations")
			}
			msg := out.Violations[0].Error()
			if !strings.Contains(msg, "t=") {
				t.Errorf("diagnostic %q lacks a timestamp", msg)
			}
			if !strings.Contains(msg, "0x") {
				t.Errorf("diagnostic %q does not name a line or structure", msg)
			}
		})
	}
	if tested == 0 {
		t.Fatal("no coherent loopback scenarios generated in 40 seeds")
	}
}
