package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// dozeLogEntry is one logged event of a doze differential: a co-runner's
// or a dozer body's, with every dozer's issue count at that instant.
type dozeLogEntry struct {
	id, j  int
	now    Time
	counts [3]int64
}

// dozeCut is the kernel's state at one RunUntil cut.
type dozeCut struct {
	now    Time
	events uint64
	counts [3]int64
}

// dozeWorldRun is what a dozeWorld leaves.
type dozeWorldRun struct {
	log             []dozeLogEntry
	cuts            []dozeCut
	events, resumes uint64
	steps           int // step calls, dozed wakes excluded
	dozes           int // Doze calls accepted
}

// dozeSpec draws one differential's world.
type dozeSpec struct {
	issue, gap []Time // per dozer
	runners    [][]Time
	acts       [][]int // per runner event: 0 nothing, 1 post, 2 spurious fire, 3 stop a dozer
	targets    [][]int
	posts      [][]Time // the visibility delay of a post
	busy       Time
	deadlines  []Time
	stopAt     Time
	bodiless   []bool // a runner is a bodiless process
}

func randomDozeSpec(rng *rand.Rand) dozeSpec {
	s := dozeSpec{busy: Time(rng.Intn(6)) * Nanosecond}
	nd := 1 + rng.Intn(3)
	for i := 0; i < nd; i++ {
		s.issue = append(s.issue, Time(1+rng.Intn(3))*Nanosecond)
		s.gap = append(s.gap, Time(1+rng.Intn(5))*Nanosecond)
	}
	nr := 1 + rng.Intn(3)
	for r := 0; r < nr; r++ {
		n := 1 + rng.Intn(40)
		var delay []Time
		var act, tgt []int
		var post []Time
		// Sparse runners leave the dozers long run-next batches.
		scale := Time(1 + rng.Intn(3)*10)
		for j := 0; j < n; j++ {
			delay = append(delay, Time(rng.Intn(7))*scale*Nanosecond)
			a := 0
			if x := rng.Intn(10); x < 3 {
				a = 1
			} else if x < 4 {
				a = 2
			} else if x == 4 && rng.Intn(4) == 0 {
				a = 3
			}
			act = append(act, a)
			tgt = append(tgt, rng.Intn(nd))
			post = append(post, Time(rng.Intn(12))*Nanosecond)
		}
		s.runners = append(s.runners, delay)
		s.acts = append(s.acts, act)
		s.targets = append(s.targets, tgt)
		s.posts = append(s.posts, post)
		s.bodiless = append(s.bodiless, rng.Intn(2) == 0)
	}
	s.deadlines = []Time{Time(rng.Intn(60)) * Nanosecond, Time(rng.Intn(200)) * Nanosecond,
		Time(rng.Intn(200))*Nanosecond + Time(rng.Intn(1000)), 2000 * Nanosecond}
	if rng.Intn(4) == 0 {
		s.stopAt = Time(1+rng.Intn(300)) * Nanosecond
	}
	return s
}

// dozeWorld runs spec's dozers — spinners polling a mailbox with the
// two-phase cycle of an idle NIC core — beside its co-runners, which post
// to the mailboxes (work visible after a delay), fire the watches without
// posting, and stop dozers. With doze, a dozer hands its cycle to the
// kernel at every empty completion, watched by its mailbox's Watch, with
// the pending post's visibility as the horizon; without, it runs every
// wake as a plain Spin step. probe installs a scheduling probe.
func dozeWorld(t *testing.T, s dozeSpec, doze, probe bool) dozeWorldRun {
	k := New()
	if probe {
		k.SetProbe(nopProbe{})
	}
	var run dozeWorldRun
	nd := len(s.issue)
	var counts [3]int64
	type mailbox struct {
		posted  bool
		vis     Time
		stopped bool
		w       Watch
		dz      Doze
	}
	boxes := make([]mailbox, nd)
	logAt := func(id, j int) {
		run.log = append(run.log, dozeLogEntry{id, j, k.Now(), counts})
	}
	for i := 0; i < nd; i++ {
		b := &boxes[i]
		b.dz = Doze{Issue: s.issue[i], Gap: s.gap[i], Count: &counts[i]}
		ready := func() bool { return b.posted && k.Now() >= b.vis }
		k.Spawn(fmt.Sprintf("dozer%d", i), func(p *Proc) {
			step := func() (Time, bool) {
				run.steps++
				if b.dz.Issued {
					b.dz.Issued = false
					if ready() {
						return 0, false
					}
					// A stopped dozer's next issue declines: it
					// may not doze.
					if doze && !b.stopped {
						h := Never
						if b.posted {
							h = b.vis
						}
						if b.w.Arm(&b.dz) && p.Doze(&b.dz, h) {
							run.dozes++
						}
					}
					return b.dz.Gap, true
				}
				if b.stopped || ready() {
					return 0, false
				}
				*b.dz.Count++
				b.dz.Issued = true
				return b.dz.Issue, true
			}
			for j := 0; ; j++ {
				logAt(100+i, j)
				if b.stopped {
					return
				}
				if ready() {
					b.posted = false
					p.Sleep(s.busy)
					logAt(200+i, j)
				}
				p.Spin(b.dz.Gap, step)
			}
		})
	}
	act := func(r, j int) {
		logAt(r, j)
		b := &boxes[s.targets[r][j]]
		switch s.acts[r][j] {
		case 1:
			if !b.posted {
				b.posted, b.vis = true, k.Now()+s.posts[r][j]
			}
			b.w.Fire()
		case 2:
			b.w.Fire()
		case 3:
			b.stopped = true
			b.dz.Wake()
		}
	}
	for r, delays := range s.runners {
		name := fmt.Sprintf("runner%d", r)
		if s.bodiless[r] {
			j := 0
			k.SpawnSpin(name, func() (Time, bool) {
				if j == len(delays) {
					return 0, false
				}
				act(r, j)
				j++
				return delays[j-1], true
			})
			continue
		}
		k.Spawn(name, func(p *Proc) {
			for j, d := range delays {
				act(r, j)
				p.Sleep(d)
			}
		})
	}
	if s.stopAt > 0 {
		k.Spawn("stopper", func(p *Proc) {
			p.Sleep(s.stopAt)
			k.Stop()
		})
	}
	for _, d := range s.deadlines {
		if err := k.RunUntil(d); err != nil {
			t.Fatal(err)
		}
		run.cuts = append(run.cuts, dozeCut{k.Now(), k.Events(), counts})
	}
	run.events, run.resumes = k.Events(), k.Resumes()
	k.Shutdown()
	return run
}

type nopProbe struct{}

func (nopProbe) Event(Time)  {}
func (nopProbe) RunEnd(Time) {}

// sameDozeRun reports the first difference between two runs, or "".
func sameDozeRun(got, want dozeWorldRun) string {
	if len(got.log) != len(want.log) {
		return fmt.Sprintf("%d logged events, want %d", len(got.log), len(want.log))
	}
	for i := range want.log {
		if got.log[i] != want.log[i] {
			return fmt.Sprintf("event %d is %+v, want %+v", i, got.log[i], want.log[i])
		}
	}
	for i := range want.cuts {
		if got.cuts[i] != want.cuts[i] {
			return fmt.Sprintf("cut %d is %+v, want %+v", i, got.cuts[i], want.cuts[i])
		}
	}
	if got.events != want.events || got.resumes != want.resumes {
		return fmt.Sprintf("%d events and %d resumes, want %d and %d", got.events, got.resumes, want.events, want.resumes)
	}
	return ""
}

// TestDozeMatchesSpin is the kernel's randomized differential for dozing:
// spinners that hand their idle cycle to the kernel must produce exactly
// the event order, clock, event and resume counts and issue counts of the
// same spinners stepping every wake — across co-runners tied at the same
// picosecond, watches fired between an issue and its completion and
// without any change, horizons, RunUntil cuts inside a run-next batch, and
// Stop. Under a scheduling probe Doze declines.
func TestDozeMatchesSpin(t *testing.T) {
	var steps, spinSteps, dozes int
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := randomDozeSpec(rng)
		want := dozeWorld(t, spec, false, false)
		got := dozeWorld(t, spec, true, false)
		if diff := sameDozeRun(got, want); diff != "" {
			t.Fatalf("seed %d: %s", seed, diff)
		}
		steps, spinSteps, dozes = steps+got.steps, spinSteps+want.steps, dozes+got.dozes
		if seed%10 == 0 {
			probed := dozeWorld(t, spec, true, true)
			if diff := sameDozeRun(probed, want); diff != "" {
				t.Fatalf("seed %d under a probe: %s", seed, diff)
			}
			if probed.dozes != 0 {
				t.Fatalf("seed %d: Doze accepted %d times under a probe", seed, probed.dozes)
			}
		}
	}
	if dozes == 0 || steps*4 > spinSteps {
		t.Fatalf("dozing ran %d of the %d plain steps (%d dozes), want under a quarter", steps, spinSteps, dozes)
	}
	t.Logf("dozing ran %d of %d steps over %d dozes", steps, spinSteps, dozes)
}

// A doze's run-next batch stops strictly before a co-runner's wake at the
// same instant, so the co-runner keeps its FIFO place, and at a RunUntil
// deadline, so the next run resumes the cycle in phase.
func TestDozeBatchBounds(t *testing.T) {
	k := New()
	var n int64
	dz := Doze{Issue: 2, Gap: 3, Count: &n}
	var seen []int64
	k.Spawn("dozer", func(p *Proc) {
		step := func() (Time, bool) {
			if dz.Issued {
				dz.Issued = false
				p.Doze(&dz, Never)
				return dz.Gap, true
			}
			n++
			dz.Issued = true
			return dz.Issue, true
		}
		p.Spin(dz.Gap, step)
	})
	k.Spawn("tie", func(p *Proc) {
		// The dozer wakes at 3, 5, 8, 10, 13, ...: 13 is its third issue,
		// re-pushed at 10, behind tie's wake at 13, pushed at 0.
		p.Sleep(13)
		seen = append(seen, n)
	})
	if err := k.RunUntil(21); err != nil {
		t.Fatal(err)
	}
	// The dozer's start and its wakes up to 21 (3 5 8 10 13 15 18 20),
	// plus both of tie's events.
	if k.Events() != 11 || n != 4 || dz.Issued || k.Now() != 21 {
		t.Fatalf("after the first cut: %d events, %d issues, issued %v at %v; want 11, 4, false at 21", k.Events(), n, dz.Issued, k.Now())
	}
	if len(seen) != 1 || seen[0] != 2 {
		t.Fatalf("tie saw issue counts %v at 13, want [2]: it runs before the dozer's issue there", seen)
	}
	if err := k.RunUntil(30); err != nil {
		t.Fatal(err)
	}
	// 23 25 28 30.
	if k.Events() != 15 || n != 6 || dz.Issued {
		t.Fatalf("after the second cut: %d events, %d issues, issued %v; want 15, 6, false", k.Events(), n, dz.Issued)
	}
	k.Shutdown()
}
