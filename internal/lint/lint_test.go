package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ccnic/internal/lint"
	"ccnic/internal/lint/linttest"
)

// Fixture tests: each analyzer has a positive fixture whose want comments
// enumerate every diagnostic, and a clean fixture that must stay silent.

func TestDetlintBad(t *testing.T)   { linttest.Run(t, "testdata/det_bad", lint.Detlint) }
func TestDetlintClean(t *testing.T) { linttest.Run(t, "testdata/det_clean", lint.Detlint) }

// TestYieldlintPR2Bug checks that yieldlint re-finds the PR 2 bufpool
// conservation bug from the //ccnic:atomic annotation alone, in a fixture
// with the fix reverted (the simulated-time charge back inside the
// pop-to-take span).
func TestYieldlintPR2Bug(t *testing.T) { linttest.Run(t, "testdata/yield_pr2bug", lint.Yieldlint) }
func TestYieldlintClean(t *testing.T)  { linttest.Run(t, "testdata/yield_clean", lint.Yieldlint) }

// TestYieldlintSpinStep checks that yieldlint flags a Proc.Spin step that
// yields, whether passed as a method or function value, a local or a struct
// field bound to one, or a function literal, and accepts steps that only
// read state.
func TestYieldlintSpinStep(t *testing.T) { linttest.Run(t, "testdata/yield_spin", lint.Yieldlint) }

func TestProbelintBad(t *testing.T)   { linttest.Run(t, "testdata/probe_bad", lint.Probelint) }
func TestProbelintClean(t *testing.T) { linttest.Run(t, "testdata/probe_clean", lint.Probelint) }

func TestAlloclintBad(t *testing.T)   { linttest.Run(t, "testdata/alloc_bad", lint.Alloclint) }
func TestAlloclintClean(t *testing.T) { linttest.Run(t, "testdata/alloc_clean", lint.Alloclint) }

func TestOwnlintBad(t *testing.T)   { linttest.Run(t, "testdata/own_bad", lint.Ownlint) }
func TestOwnlintClean(t *testing.T) { linttest.Run(t, "testdata/own_clean", lint.Ownlint) }

func TestTimelintBad(t *testing.T)   { linttest.Run(t, "testdata/time_bad", lint.Timelint) }
func TestTimelintClean(t *testing.T) { linttest.Run(t, "testdata/time_clean", lint.Timelint) }

func TestExhaustlintBad(t *testing.T)   { linttest.Run(t, "testdata/exhaust_bad", lint.Exhaustlint) }
func TestExhaustlintClean(t *testing.T) { linttest.Run(t, "testdata/exhaust_clean", lint.Exhaustlint) }

// loadModule is the real module, loaded and type-checked once per test
// binary and shared by the tests that lint it. They run sequentially, so
// sharing the Program's lazy indexes is safe.
var loadModule = sync.OnceValues(func() (*lint.Program, error) { return lint.Load("../..", "./...") })

// moduleProgram returns the shared module Program, skipping in -short mode.
func moduleProgram(t *testing.T) *lint.Program {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, err := loadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	return prog
}

// TestShardlintSelfCheck proves the analyzer fires: with the topology layer
// (fabric) removed from the boundary allowlist, every Link.Send and
// Engine.Connect it issues — the switch owns all of the cluster's link
// traffic — must be flagged; with the real allowlist, the module must be
// clean. (Shardlint cannot use self-contained fixtures — it matches the
// real shard package's method identities.)
func TestShardlintSelfCheck(t *testing.T) {
	prog := moduleProgram(t)
	diags, err := lint.Run(prog, []*lint.Analyzer{lint.Shardlint})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("module should be shardlint-clean, got %v", diags)
	}
	defer lint.SetShardBoundaryPkgs(lint.SetShardBoundaryPkgs([]string{"ccnic/internal/sim/shard"}))
	diags, err = lint.Run(prog, []*lint.Analyzer{lint.Shardlint})
	if err != nil {
		t.Fatal(err)
	}
	var sends, connects int
	for _, d := range diags {
		if strings.Contains(d.Message, "Link.Send") {
			sends++
		}
		if strings.Contains(d.Message, "Engine.Connect") {
			connects++
		}
	}
	if sends == 0 || connects == 0 {
		t.Fatalf("shrunken allowlist should flag the fabric's sends and connects, got %v", diags)
	}
}

// TestMutationSelfChecks seeds one defect into each clean fixture and
// asserts the matching analyzer catches it. This guards the analyzers
// themselves: a regression that silences one of them breaks the mutation,
// not just the (vacuously clean) fixtures.
func TestMutationSelfChecks(t *testing.T) {
	cases := []struct {
		name     string
		fixture  string
		old, new string
		analyzer *lint.Analyzer
		wantMsg  string
	}{
		{
			name:     "yieldlint refinds reverted PR2 fix",
			fixture:  "testdata/yield_clean",
			old:      "//ccnic:atomic-end the charge below may yield; the pool is consistent\n\t\texec(1)",
			new:      "exec(1)\n\t\t//ccnic:atomic-end fix reverted: the charge yields mid-region",
			analyzer: lint.Yieldlint,
			wantMsg:  "yielding function exec",
		},
		{
			name:     "detlint flags unsorted map drain",
			fixture:  "testdata/det_clean",
			old:      "\t//ccnic:nondet-ok sorted-collect: fully ordered below\n",
			new:      "",
			analyzer: lint.Detlint,
			wantMsg:  "inside map iteration",
		},
		{
			name:     "probelint flags removed guard",
			fixture:  "testdata/probe_clean",
			old:      "if s.probe != nil {\n\t\ts.probe.Event(1)",
			new:      "{\n\t\ts.probe.Event(1)",
			analyzer: lint.Probelint,
			wantMsg:  "not nil-guarded",
		},
		{
			name:     "alloclint flags injected allocation",
			fixture:  "testdata/alloc_clean",
			old:      "it := p.free[n-1]",
			new:      "it := p.free[n-1]\n\tp.free = make([]*item, 0, n)",
			analyzer: lint.Alloclint,
			wantMsg:  "make allocates",
		},
		{
			name:     "ownlint flags a Free deleted on one path",
			fixture:  "testdata/own_clean",
			old:      "\t\tp.Free(b)\n\t\treturn\n\t}\n\tp.Free(b)\n}",
			new:      "\t\tp.Free(b)\n\t\treturn\n\t}\n}",
			analyzer: lint.Ownlint,
			wantMsg:  "not released or transferred on every path",
		},
		{
			name:     "timelint flags a deleted snapshot refresh",
			fixture:  "testdata/time_clean",
			old:      "\tstart = c.Now()\n",
			new:      "",
			analyzer: lint.Timelint,
			wantMsg:  "captured before a yielding call",
		},
		{
			name:     "exhaustlint flags a removed switch arm",
			fixture:  "testdata/exhaust_clean",
			old:      "\tcase StateModified:\n\t\treturn \"M\"\n\t}\n\treturn \"?\"",
			new:      "\t}\n\treturn \"?\"",
			analyzer: lint.Exhaustlint,
			wantMsg:  "does not cover StateModified",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := mutate(t, tc.fixture, tc.old, tc.new)
			prog, err := lint.LoadDir(dir)
			if err != nil {
				t.Fatalf("loading mutated fixture: %v", err)
			}
			diags, err := lint.Run(prog, []*lint.Analyzer{tc.analyzer})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags {
				if strings.Contains(d.Message, tc.wantMsg) {
					return
				}
			}
			t.Fatalf("seeded defect not caught: want a diagnostic containing %q, got %v", tc.wantMsg, diags)
		})
	}
}

// mutate copies the fixture into a temp dir with old replaced by new once.
func mutate(t *testing.T, srcDir, old, new string) string {
	t.Helper()
	dir := t.TempDir()
	ents, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	replaced := false
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		s := string(data)
		if strings.Contains(s, old) {
			s = strings.Replace(s, old, new, 1)
			replaced = true
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !replaced {
		t.Fatalf("mutation target %q not found in %s", old, srcDir)
	}
	return dir
}

// TestModuleClean runs the full suite over the real module and requires
// zero findings — the same bar `make lint` and CI hold the tree to.
func TestModuleClean(t *testing.T) {
	diags, err := lint.Run(moduleProgram(t), lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
