package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"ccnic"
	"ccnic/internal/check"
	"ccnic/internal/cluster"
	"ccnic/internal/coherence"
	"ccnic/internal/fault"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
	"ccnic/internal/stats"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be present.
	want := []string{
		"fig2", "fig3", "fig7", "fig8", "fig9", "table1",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19", "fig20", "fig21", "table2",
		// Extensions beyond the paper's evaluation (§3.2, §6).
		"ext-cxl", "ext-dsa", "ext-event", "ext-netfn",
		// Fault-injection family (internal/fault).
		"faults-rate", "faults-recovery",
		// Cross-protocol design-space sweep (CXL backend).
		"proto-sweep",
		// Switched-fabric family (internal/fabric).
		"fabric-incast", "fabric-isolation", "fabric-crossover",
		// Reliability chaos family (redundant fabric + reliable transport).
		"fabric-portflap", "failover-recovery",
	}
	for _, id := range want {
		e := ByID(id)
		if e == nil {
			t.Errorf("experiment %s missing", id)
			continue
		}
		if e.Title == "" || e.Paper == "" || e.run == nil {
			t.Errorf("experiment %s incomplete", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	// Ordering: figures ascending, then tables and extensions.
	ids := All()
	if ids[0].ID != "fig2" {
		t.Errorf("ordering wrong: first %s", ids[0].ID)
	}
}

func TestByIDUnknown(t *testing.T) {
	if ByID("fig99") != nil {
		t.Error("unknown id should return nil")
	}
}

func TestReportFormat(t *testing.T) {
	r := ByID("table1").Run(Options{})
	out := r.Format()
	for _, frag := range []string{"table1", "UPI", "PCIe 4.0", "67.2"} {
		if !strings.Contains(out, frag) {
			t.Errorf("formatted report missing %q:\n%s", frag, out)
		}
	}
}

// --- Shape acceptance tests: the paper's qualitative claims must hold. ---

func TestFig2Shape(t *testing.T) {
	r := ByID("fig2").Run(Options{Quick: true})
	s := r.Groups[0].Series
	mmio, wb := s[0], s[2]
	// WB DRAM is nearly flat; WC MMIO needs big batches.
	wbSmall, _ := wb.YAt(64)
	wbBig, _ := wb.YAt(8192)
	if wbBig > 1.5*wbSmall {
		t.Errorf("WB DRAM should be barrier-insensitive: %v vs %v", wbSmall, wbBig)
	}
	mSmall, _ := mmio.YAt(64)
	mBig, _ := mmio.YAt(8192)
	if mBig < 5*mSmall {
		t.Errorf("WC MMIO should gain >5x from batching: %v vs %v", mSmall, mBig)
	}
	if mBig > wbBig {
		t.Error("batched WC MMIO should stay below WB DRAM")
	}
}

func TestFig3Shape(t *testing.T) {
	r := ByID("fig3").Run(Options{Quick: true})
	e810 := r.Groups[0].Series[0]
	at24, _ := e810.YAt(24)
	at64, _ := e810.YAt(64)
	// Knee at 24 stores: cumulative cost explodes afterwards.
	if at64 < 50*at24 {
		t.Errorf("no WC exhaustion knee: cum(24)=%vus cum(64)=%vus", at24, at64)
	}
}

func TestFig8Shape(t *testing.T) {
	r := ByID("fig8").Run(Options{Quick: true})
	// The separate/co-located ratio (the Wr layout against S0C) must be
	// at least 1.4x on both platforms (paper: 1.7-2.4x).
	rows := map[string][]stats.Cell{}
	for _, row := range r.Tables[0].Rows {
		rows[row[0].String()] = row
	}
	for col, plat := range []string{"SPR", "ICX"} {
		sep, co := rows["Wr"][col+1].Float(), rows["S0C"][col+1].Float()
		if ratio := sep / co; ratio < 1.4 {
			t.Errorf("%s: separate lines %.0f ns vs co-located %.0f ns, ratio %.2f below 1.4", plat, sep, co, ratio)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	r := ByID("fig9").Run(Options{Quick: true})
	for _, g := range r.Groups {
		caching, nontmp := g.Series[0], g.Series[1]
		// The quick sweep may stop before the crossover core count; in
		// that regime caching must still be scaling at least as fast as
		// nontemporal (the full sweep shows the crossover itself).
		cs := caching.Points
		ns := nontmp.Points
		cSlope := cs[len(cs)-1].Y / cs[len(cs)-2].Y
		nSlope := ns[len(ns)-1].Y / ns[len(ns)-2].Y
		if caching.MaxY() <= nontmp.MaxY() && cSlope < nSlope {
			t.Errorf("%s: caching (%.0f Gbps, slope %.2f) neither beats nor out-scales nontemporal (%.0f Gbps, slope %.2f)",
				g.Name, caching.MaxY(), cSlope, nontmp.MaxY(), nSlope)
		}
	}
}

func TestFig15Shape(t *testing.T) {
	r := ByID("fig15").Run(Options{Quick: true})
	rows := r.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("expected 4 ablation rows, got %d", len(rows))
	}
	// Each removal must not improve on the optimized design, and the
	// final (PCIe-style) configuration must be well below optimized.
	opt := rows[0][1].Float()
	final := rows[3][1].Float()
	if final >= 0.8*opt {
		t.Errorf("full ablation (%.1f) should be well below optimized (%.1f)", final, opt)
	}
}

func TestFig17Shape(t *testing.T) {
	r := ByID("fig17").Run(Options{Quick: true})
	rows := r.Tables[0].Rows
	get := func(i, col int) float64 { return rows[i][col].Float() }
	ccB, unB := get(0, 1)+get(0, 2), get(1, 1)+get(1, 2)
	ccS, unS := get(2, 1)+get(2, 2), get(3, 1)+get(3, 2)
	if ccB >= unB {
		t.Errorf("batched: CC-NIC (%.2f) should need fewer remote accesses than unopt (%.2f)", ccB, unB)
	}
	if ccS >= unS {
		t.Errorf("singleton: CC-NIC (%.2f) should need fewer remote accesses than unopt (%.2f)", ccS, unS)
	}
	if ccB >= ccS {
		t.Errorf("batching should amortize CC-NIC accesses: %.2f vs %.2f", ccB, ccS)
	}
}

func TestFig20Shape(t *testing.T) {
	r := ByID("fig20").Run(Options{Quick: true})
	rows := r.Tables[0].Rows
	hostOn := rows[0][2].Float()
	// Host prefetching must help CC-NIC 64B (paper: 1.2x).
	if hostOn < 1.0 {
		t.Errorf("host prefetching should not hurt CC-NIC 64B: %.2f", hostOn)
	}
}

// TestInterconnectSweepShape pins ext-cxl's ordering claim, and that the
// three interconnect-sensitivity experiments are one measurement: ext-cxl's
// unloaded points are proto-sweep's 100% column, and fig21's CC-NIC series
// is proto-sweep's CC-NIC/UPI series.
func TestInterconnectSweepShape(t *testing.T) {
	opt := Options{Quick: true}
	ext := map[string][2]float64{} // interface -> peak Mpps, unloaded median ns
	for _, row := range ByID("ext-cxl").Run(opt).Tables[0].Rows {
		ext[row[0].String()] = [2]float64{row[1].Float(), row[2].Float()}
	}
	cc, unopt, e810 := ext["CC-NIC/CXL"], ext["Unopt/CXL"], ext["E810 PCIe"]
	if cc[0] <= e810[0] || cc[0] <= unopt[0] {
		t.Errorf("CC-NIC/CXL peak %.1f Mpps should beat E810 (%.1f) and Unopt/CXL (%.1f)", cc[0], e810[0], unopt[0])
	}
	if cc[1] >= e810[1] || cc[1] >= unopt[1] {
		t.Errorf("CC-NIC/CXL unloaded %.0f ns should undercut E810 (%.0f) and Unopt/CXL (%.0f)", cc[1], e810[1], unopt[1])
	}

	proto := ByID("proto-sweep").Run(opt)
	for i, name := range []string{"CC-NIC/CXL", "E810 PCIe"} {
		got, _ := proto.Groups[0].Series[i+1].YAt(100)
		if math.Abs(got-ext[name][1]) > 0.5 {
			t.Errorf("%s: proto-sweep's 100%% point reads %.0f ns, ext-cxl %.0f ns", name, got, ext[name][1])
		}
	}
	fig21 := ByID("fig21").Run(opt)
	for g, group := range fig21.Groups {
		got, want := group.Series[0].Points, proto.Groups[g].Series[0].Points
		if len(got) != len(want) {
			t.Fatalf("%s: fig21 has %d CC-NIC points, proto-sweep %d", group.Name, len(got), len(want))
		}
		for i := range got {
			if got[i].Y != want[i].Y {
				t.Errorf("%s point %d: fig21 CC-NIC %v, proto-sweep CC-NIC/UPI %v", group.Name, i, got[i].Y, want[i].Y)
			}
		}
	}
}

// TestFaultsRateShape: the coherent interface keeps its margin over PCIe
// under every fault rate, and each step up in rate costs CC-NIC
// throughput. E810's throughput is not claimed monotone: its slack absorbs
// low rates, so it can read higher at one step than at the one before.
func TestFaultsRateShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fault workloads")
	}
	r := ByID("faults-rate").Run(Options{Quick: true})
	tput, lat := r.Groups[0].Series, r.Groups[1].Series
	cc, e810 := tput[0].Points, tput[1].Points
	if len(cc) < 2 {
		t.Fatalf("faults-rate swept %d rates, want at least 2", len(cc))
	}
	for i, p := range cc {
		if i > 0 && p.Y >= cc[i-1].Y {
			t.Errorf("CC-NIC %.3g Mpps at %g%% does not fall from %.3g Mpps at %g%%", p.Y, p.X, cc[i-1].Y, cc[i-1].X)
		}
		if p.Y <= e810[i].Y {
			t.Errorf("at %g%%: CC-NIC %.3g Mpps is not above E810's %.3g", p.X, p.Y, e810[i].Y)
		}
		if ccLat, pcieLat := lat[0].Points[i].Y, lat[1].Points[i].Y; ccLat >= pcieLat {
			t.Errorf("at %g%%: CC-NIC median %.3g us is not below E810's %.3g", p.X, ccLat, pcieLat)
		}
	}
}

// TestFaultsRecoveryShape: each armed class must actually inject, the
// doorbell-drop row must show the driver's re-ring watchdog firing, and the
// wedged rows must exhaust their recovery paths: the echo RPC retransmits,
// backs off and drops, the KV store retries and backs off.
func TestFaultsRecoveryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fault workloads")
	}
	r := ByID("faults-recovery").Run(Options{Quick: true})
	// The counter columns after class, workload and injected.
	const rerings, retries, retransmits, backoffs, drops = 3, 4, 5, 6, 7
	wedged := map[string][]int{
		"wedged-TX echo RPC": {retransmits, backoffs, drops},
		"wedged-TX KV store": {retries, backoffs},
	}
	columns := r.Tables[0].Columns
	for _, row := range r.Tables[0].Rows {
		if row[2].Float() == 0 {
			t.Errorf("class %s (%s) injected nothing", row[0], row[1])
		}
		if row[0].String() == "dbdrop" && row[rerings].Float() == 0 {
			t.Errorf("dbdrop row shows no doorbell re-rings: %v", row)
		}
		for _, col := range wedged[row[1].String()] {
			if row[col].Float() == 0 {
				t.Errorf("%s row shows no %s: %v", row[1], columns[col], row)
			}
		}
		delete(wedged, row[1].String())
	}
	for name := range wedged {
		t.Errorf("no %s row", name)
	}
}

// TestExperimentDeterminism re-runs quick experiments and requires
// bit-identical reports — regenerated figures must be reproducible.
// faults-rate and faults-recovery pin the acceptance criterion that a
// seeded fault plan yields bit-identical output.
func TestExperimentDeterminism(t *testing.T) {
	for _, id := range []string{"fig7", "fig8", "fig17", "ext-dsa", "faults-rate", "faults-recovery"} {
		e := ByID(id)
		a := e.Run(Options{Quick: true}).Format()
		b := e.Run(Options{Quick: true}).Format()
		if a != b {
			t.Errorf("%s reports differ between runs:\n--- first ---\n%s\n--- second ---\n%s", id, a, b)
		}
	}
}

// TestBuildsGoThroughOptions holds the package to its three builders: no
// file but experiments.go constructs a simulation, so the run's fault plan,
// protocol and invariant engine reach every one.
func TestBuildsGoThroughOptions(t *testing.T) {
	constructors := map[string]bool{
		"ccnic.NewTestbed": true, "cluster.New": true,
		"coherence.NewSystem": true, "coherence.NewSystemProto": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if name == "experiments.go" || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && constructors[x.Name+"."+sel.Sel.Name] {
				t.Errorf("%s: %s.%s builds a simulation past Options; use its testbed, cluster or system builder",
					fset.Position(sel.Pos()), x.Name, sel.Sel.Name)
			}
			return true
		})
	}
}

// TestCheckReachesEverySimulationKind runs a bare-system experiment (fig8),
// a testbed experiment (ext-event) and a cluster experiment
// (fabric-isolation) with and without Options.Check: each must run the
// invariant engine exactly when Check is set.
func TestCheckReachesEverySimulationKind(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three quick experiments twice")
	}
	for _, id := range []string{"fig8", "ext-event", "fabric-isolation"} {
		t.Run(id, func(t *testing.T) {
			for _, on := range []bool{false, true} {
				before := check.TotalEngines()
				ByID(id).Run(Options{Quick: true, Check: on})
				if ran := check.TotalEngines() > before; ran != on {
					t.Errorf("%s with Check=%v: engines ran = %v", id, on, ran)
				}
			}
		})
	}
}

// TestOptionsBuilders pins what each builder takes from the run: the
// testbed fills the protocol and fault plan a point leaves unset and keeps
// the ones it sets, the cluster fills its fault plan the same way, and the
// bare system takes neither.
func TestOptionsBuilders(t *testing.T) {
	runPlan, err := ccnic.ParseFaultPlan("seed=7,all=0.02")
	if err != nil {
		t.Fatal(err)
	}
	pointPlan, err := ccnic.ParseFaultPlan("seed=9,all=0.02")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Quick: true, Protocol: "cxl", Faults: runPlan}

	t.Run("testbed fills unset fields", func(t *testing.T) {
		tb := opt.testbed(opt.resolve(ccnic.Config{}))
		if got := tb.Sys.Protocol(); got != coherence.ProtoCXL {
			t.Errorf("protocol = %v, want the run's CXL", got)
		}
		if got := tb.Sys.Faults().Plan().Seed; got != runPlan.Seed {
			t.Errorf("fault seed = %d, want the run's %d", got, runPlan.Seed)
		}
	})
	t.Run("testbed keeps the point's fields", func(t *testing.T) {
		tb := opt.testbed(opt.resolve(ccnic.Config{Protocol: "UPI", Faults: pointPlan}))
		if got := tb.Sys.Protocol(); got != coherence.ProtoUPI {
			t.Errorf("protocol = %v, want the point's UPI", got)
		}
		if got := tb.Sys.Faults().Plan().Seed; got != pointPlan.Seed {
			t.Errorf("fault seed = %d, want the point's %d", got, pointPlan.Seed)
		}
	})
	t.Run("cluster fills its fault plan", func(t *testing.T) {
		for _, c := range []struct {
			name string
			cfg  *fault.Plan
			want *fault.Plan
		}{
			{"unset", nil, runPlan},
			{"set", pointPlan, pointPlan},
		} {
			cl := opt.cluster(cluster.Config{Hosts: 2, Faults: c.cfg}, 20*sim.Microsecond)
			got := cl.Switch.Faults().Plan()
			cl.Close()
			if got != *c.want {
				t.Errorf("%s: switch fault plan = %v, want %v", c.name, &got, c.want)
			}
		}
	})
	t.Run("system takes neither", func(t *testing.T) {
		s := opt.system(sim.New(), platform.ICX())
		if got := s.Protocol(); got != coherence.ProtoUPI {
			t.Errorf("protocol = %v, want UPI", got)
		}
		if s.Faults() != nil {
			t.Errorf("bare system armed the run's fault plan")
		}
	})
}
