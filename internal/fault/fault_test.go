package fault

import (
	"slices"
	"strings"
	"testing"

	"ccnic/internal/sim"
)

func TestParsePlan(t *testing.T) {
	for _, spec := range []string{"", "none", " none "} {
		p, err := ParsePlan(spec)
		if err != nil || p != nil {
			t.Errorf("ParsePlan(%q) = %v, %v; want nil, nil", spec, p, err)
		}
	}
	p, err := ParsePlan("seed=7,link=0.002,dbdrop=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Rate[LinkCorrupt] != 0.002 || p.Rate[DoorbellDrop] != 0.01 {
		t.Errorf("parsed plan %+v", p)
	}
	if !p.Armed() {
		t.Error("plan should be armed")
	}
	if got := p.String(); got != "seed=7,link=0.002,dbdrop=0.01" {
		t.Errorf("canonical form %q", got)
	}
	round, err := ParsePlan(p.String())
	if err != nil || *round != *p {
		t.Errorf("round trip: %+v, %v", round, err)
	}

	all, err := ParsePlan("all=0.001")
	if err != nil {
		t.Fatal(err)
	}
	for c := Class(0); c < NumClasses; c++ {
		if all.Rate[c] != 0.001 {
			t.Errorf("all= did not set %v", c)
		}
	}
	if all.Seed != 1 {
		t.Errorf("default seed %d, want 1", all.Seed)
	}

	for _, bad := range []string{"bogus=0.1", "link", "link=x", "link=2", "link=-1", "seed=x"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
	// Zero rates parse to an unarmed (nil) plan.
	if p, err := ParsePlan("seed=3,link=0"); err != nil || p != nil {
		t.Errorf("all-zero plan: %v, %v; want nil, nil", p, err)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var f *Injector
	if f.DoorbellDropped() || f.DoorbellDuplicated() {
		t.Error("nil injector drops doorbells")
	}
	if f.ReplayDelay() != 0 || f.PipelineStall() != 0 || f.DMADelay() != 0 || f.CachePressure() != 0 {
		t.Error("nil injector injects delay")
	}
	if s, d := f.LinkFault(); s != 0 || d != 0 {
		t.Error("nil injector injects link faults")
	}
	if f.Stats() != nil {
		t.Error("nil injector has stats")
	}
	// Stats methods tolerate nil so recovery paths need no guards.
	f.Stats().NoteRering()
	f.Stats().NoteDrop()
	if f.Stats().Total() != 0 {
		t.Error("nil stats counted")
	}
	if NewInjector(nil, 0) != nil {
		t.Error("NewInjector(nil) should be nil")
	}
	var unarmed Plan
	if NewInjector(&unarmed, 0) != nil {
		t.Error("NewInjector(unarmed) should be nil")
	}
}

// TestDeterministicSchedule: same plan, same opportunities ⇒ identical
// fault schedule; and probing unarmed classes draws nothing (so a plan's
// schedule is independent of, say, the doorbell classes being probed).
func TestDeterministicSchedule(t *testing.T) {
	plan, _ := ParsePlan("seed=11,link=0.5,dma=0.5")
	type event struct {
		spike, derate, dma sim.Time
	}
	run := func(probeOthers bool) []event {
		f := NewInjector(plan, 0)
		var out []event
		for i := 0; i < 200; i++ {
			var e event
			e.spike, e.derate = f.LinkFault()
			if probeOthers {
				// Unarmed classes must draw nothing.
				f.DoorbellDropped()
				f.PipelineStall()
				f.CachePressure()
			}
			e.dma = f.DMADelay()
			out = append(out, e)
		}
		return out
	}
	a, b, c := run(false), run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical runs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			t.Fatalf("draw %d perturbed by probing unarmed classes: %+v vs %+v", i, a[i], c[i])
		}
	}
}

func TestInjectionRateAndStats(t *testing.T) {
	plan, _ := ParsePlan("seed=5,dbdrop=0.25")
	f := NewInjector(plan, 0)
	drops := 0
	for i := 0; i < 4000; i++ {
		if f.DoorbellDropped() {
			drops++
		}
	}
	if drops < 800 || drops > 1200 {
		t.Errorf("dbdrop=0.25 fired %d/4000 times", drops)
	}
	if got := f.Stats().Injected[DoorbellDrop]; got != int64(drops) {
		t.Errorf("stats recorded %d, observed %d", got, drops)
	}
	if f.Stats().Total() != int64(drops) {
		t.Errorf("total %d, want %d", f.Stats().Total(), drops)
	}
	f.Stats().NoteRering()
	f.Stats().NoteRetransmit()
	rep := f.Stats().Format()
	for _, frag := range []string{"dbdrop", "rerings=1", "retransmits=1"} {
		if !strings.Contains(rep, frag) {
			t.Errorf("stats report missing %q:\n%s", frag, rep)
		}
	}
}

func TestSpansWithinBounds(t *testing.T) {
	plan, _ := ParsePlan("seed=2,all=1")
	f := NewInjector(plan, 0)
	for i := 0; i < 500; i++ {
		if s, d := f.LinkFault(); s < 100*sim.Nanosecond || s >= 300*sim.Nanosecond ||
			d < 200*sim.Nanosecond || d >= 600*sim.Nanosecond {
			t.Fatalf("link fault out of range: spike=%v derate=%v", s, d)
		}
		if r := f.ReplayDelay(); r < 300*sim.Nanosecond || r >= sim.Microsecond {
			t.Fatalf("replay out of range: %v", r)
		}
		if st := f.PipelineStall(); st < 500*sim.Nanosecond || st >= 2*sim.Microsecond {
			t.Fatalf("stall out of range: %v", st)
		}
		if d := f.DMADelay(); d < 200*sim.Nanosecond || d >= 800*sim.Nanosecond {
			t.Fatalf("dma delay out of range: %v", d)
		}
		if c := f.CachePressure(); c < 20*sim.Nanosecond || c >= 100*sim.Nanosecond {
			t.Fatalf("cache pressure out of range: %v", c)
		}
	}
}

func TestClassStrings(t *testing.T) {
	want := []string{"link", "replay", "dbdrop", "dbdup", "stall", "dma", "cache",
		"portflap", "corrupt", "blackhole", "brownout"}
	if int(NumClasses) != len(want) {
		t.Fatalf("NumClasses=%d, want %d", NumClasses, len(want))
	}
	for i, w := range want {
		if got := Class(i).String(); got != w {
			t.Errorf("Class(%d)=%q want %q", i, got, w)
		}
	}
	if !strings.Contains(Class(99).String(), "99") {
		t.Error("unknown class string")
	}
	if got := Classes(); len(got) != int(NumClasses) || got[0] != LinkCorrupt {
		t.Errorf("Classes() = %v", got)
	}
	// The endpoint classes are the prefix of the class list up to the
	// first fabric class.
	ep := EndpointClasses()
	if len(ep) != int(NumEndpointClasses) || ep[len(ep)-1] != CachePressure || ep[len(ep)-1]+1 != FabricPortDown {
		t.Errorf("endpoint classes %v", ep)
	}
}

func TestParsePlanEdgeCases(t *testing.T) {
	// Later entries override earlier ones, including duplicates of one key.
	p, err := ParsePlan("link=0.1,link=0.2")
	if err != nil || p.Rate[LinkCorrupt] != 0.2 {
		t.Errorf("duplicate key: %+v, %v", p, err)
	}
	// all= then a per-class override: only that class changes.
	p, err = ParsePlan("all=0.1,portflap=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if p.Rate[FabricPortDown] != 0.5 || p.Rate[LinkCorrupt] != 0.1 || p.Rate[FabricBrownout] != 0.1 {
		t.Errorf("all+override ordering: %+v", p)
	}
	// A later all= clobbers earlier per-class entries.
	p, err = ParsePlan("portflap=0.5,all=0.1")
	if err != nil || p.Rate[FabricPortDown] != 0.1 {
		t.Errorf("all after class: %+v, %v", p, err)
	}
	// Negative, NaN, and infinite rates are rejected.
	for _, bad := range []string{"portflap=-0.1", "link=NaN", "corrupt=nan", "blackhole=+Inf", "brownout=-Inf"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
	// The unknown-class error names every valid class, new ones included.
	_, err = ParsePlan("flaky=0.1")
	if err == nil {
		t.Fatal("unknown class accepted")
	}
	for _, name := range []string{"portflap", "corrupt", "blackhole", "brownout", "all", "seed", "link"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-class error missing %q: %v", name, err)
		}
	}
}

// TestFabricDrawsPartitionInvariant: a fabric draw is a pure function of
// (plan, src, seq) — re-evaluating in any order, interleaved with other
// sources and unarmed probes, yields the same schedule.
func TestFabricDrawsPartitionInvariant(t *testing.T) {
	plan, _ := ParsePlan("seed=9,portflap=0.2,blackhole=0.2")
	f := NewInjector(plan, 0)
	g := NewInjector(plan, 0)
	type draw struct{ flap, black sim.Time }
	want := make(map[[2]uint64]draw)
	for src := 0; src < 3; src++ {
		for seq := uint64(0); seq < 200; seq++ {
			want[[2]uint64{uint64(src), seq}] = draw{f.PortDown(src, seq), f.Blackhole(src, seq)}
		}
	}
	// Reverse order, interleaved with unarmed classes, on a fresh injector.
	for seq := int64(199); seq >= 0; seq-- {
		for src := 2; src >= 0; src-- {
			if g.FabricCorrupt(src, uint64(seq)) || g.Brownout(src, uint64(seq)) != 0 {
				t.Fatal("unarmed fabric class fired")
			}
			got := draw{g.PortDown(src, uint64(seq)), g.Blackhole(src, uint64(seq))}
			if got != want[[2]uint64{uint64(src), uint64(seq)}] {
				t.Fatalf("draw (%d,%d) order-dependent: %+v vs %+v", src, seq,
					got, want[[2]uint64{uint64(src), uint64(seq)}])
			}
		}
	}
	// Spans stay within the documented windows.
	hot, _ := ParsePlan("seed=3,all=1")
	h := NewInjector(hot, 0)
	for seq := uint64(0); seq < 300; seq++ {
		if d := h.PortDown(1, seq); d < 2*sim.Microsecond || d >= 8*sim.Microsecond {
			t.Fatalf("portflap span out of range: %v", d)
		}
		if d := h.Blackhole(1, seq); d < sim.Microsecond || d >= 4*sim.Microsecond {
			t.Fatalf("blackhole span out of range: %v", d)
		}
		if d := h.Brownout(1, seq); d < 1500*sim.Nanosecond || d >= 4*sim.Microsecond {
			t.Fatalf("brownout span out of range: %v", d)
		}
		if !h.FabricCorrupt(1, seq) {
			t.Fatal("corrupt at rate 1 did not fire")
		}
	}
	if h.Stats().Injected[FabricCorrupt] != 300 {
		t.Errorf("corrupt injections %d, want 300", h.Stats().Injected[FabricCorrupt])
	}
	// Nil injectors stay inert on the fabric points too.
	var nilf *Injector
	if nilf.PortDown(0, 0) != 0 || nilf.FabricCorrupt(0, 0) || nilf.Blackhole(0, 0) != 0 || nilf.Brownout(0, 0) != 0 {
		t.Error("nil injector fired a fabric draw")
	}
	// Each switch's site draws its own schedule, reproducibly, and the
	// injector keeps the plan it was given.
	flaps := func(site int) []sim.Time {
		f := NewInjector(plan, site)
		var out []sim.Time
		for seq := uint64(0); seq < 200; seq++ {
			out = append(out, f.PortDown(1, seq))
		}
		return out
	}
	if sw0, sw1 := flaps(-1), flaps(-2); slices.Equal(sw0, sw1) || slices.Equal(sw0, flaps(0)) {
		t.Error("switch sites -1, -2 and site 0 do not draw distinct schedules")
	}
	if !slices.Equal(flaps(-1), flaps(-1)) {
		t.Error("a switch site's schedule is not reproducible")
	}
	if got := NewInjector(plan, -1).Plan(); got != *plan {
		t.Errorf("switch injector's plan = %v, want %v", &got, plan)
	}
}

// endpointPoints calls each endpoint class's opportunity point once and
// returns its outcome.
var endpointPoints = [NumEndpointClasses]func(*Injector) [2]sim.Time{
	LinkCorrupt: func(f *Injector) [2]sim.Time {
		spike, derate := f.LinkFault()
		return [2]sim.Time{spike, derate}
	},
	PCIeReplay: func(f *Injector) [2]sim.Time { return [2]sim.Time{f.ReplayDelay()} },
	DoorbellDrop: func(f *Injector) [2]sim.Time {
		if f.DoorbellDropped() {
			return [2]sim.Time{1}
		}
		return [2]sim.Time{}
	},
	DoorbellDup: func(f *Injector) [2]sim.Time {
		if f.DoorbellDuplicated() {
			return [2]sim.Time{1}
		}
		return [2]sim.Time{}
	},
	PipelineStall: func(f *Injector) [2]sim.Time { return [2]sim.Time{f.PipelineStall()} },
	DMADelay:      func(f *Injector) [2]sim.Time { return [2]sim.Time{f.DMADelay()} },
	CachePressure: func(f *Injector) [2]sim.Time { return [2]sim.Time{f.CachePressure()} },
}

// TestUnarmedClassDrawsNothing pins what the injector promises about one
// class's schedule under another's opportunity points: for every ordered
// pair (A, B) of endpoint classes, B's opportunities interleaved with A's
// leave A's outcomes unchanged, whether B is unarmed or armed. Each class
// counts only its own opportunities, so arming B never moves A.
func TestUnarmedClassDrawsNothing(t *testing.T) {
	outcomes := func(p Plan, a, b Class, interleave bool) [][2]sim.Time {
		f := NewInjector(&p, 0)
		var out [][2]sim.Time
		for i := 0; i < 40; i++ {
			if interleave {
				endpointPoints[b](f)
			}
			out = append(out, endpointPoints[a](f))
		}
		return out
	}
	for _, a := range EndpointClasses() {
		for _, b := range EndpointClasses() {
			if a == b {
				continue
			}
			only := Plan{Seed: 3}
			only.Rate[a] = 0.5
			base := outcomes(only, a, b, false)
			if got := outcomes(only, a, b, true); !slices.Equal(got, base) {
				t.Errorf("unarmed %v opportunities moved the %v schedule:\n got %v\nwant %v", b, a, got, base)
			}
			both := only
			both.Rate[b] = 0.5
			if got := outcomes(both, a, b, true); !slices.Equal(got, base) {
				t.Errorf("arming %v moved the %v schedule:\n got %v\nwant %v", b, a, got, base)
			}
		}
	}
}
