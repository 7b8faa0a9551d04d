package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{2 * Nanosecond, "2.00ns"},
		{3 * Microsecond, "3.00us"},
		{4 * Millisecond, "4.000ms"},
		{2 * Second, "2.0000s"},
		{-2 * Nanosecond, "-2.00ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Nanosecond).Microseconds(); got != 1.5 {
		t.Errorf("Microseconds = %v, want 1.5", got)
	}
	if got := FromNanos(2.5); got != 2500*Picosecond {
		t.Errorf("FromNanos(2.5) = %v, want 2500ps", int64(got))
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds = %v, want 2", got)
	}
}

func TestSingleProcAdvancesTime(t *testing.T) {
	k := New()
	var end Time
	k.Spawn("p", func(p *Proc) {
		p.Sleep(10 * Nanosecond)
		p.Sleep(5 * Nanosecond)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 15*Nanosecond {
		t.Errorf("end time = %v, want 15ns", end)
	}
	if k.Live() != 0 {
		t.Errorf("live = %d, want 0", k.Live())
	}
}

func TestInterleavingIsTimeOrdered(t *testing.T) {
	k := New()
	var order []string
	k.Spawn("slow", func(p *Proc) {
		p.Sleep(20 * Nanosecond)
		order = append(order, "slow@20")
	})
	k.Spawn("fast", func(p *Proc) {
		p.Sleep(5 * Nanosecond)
		order = append(order, "fast@5")
		p.Sleep(30 * Nanosecond)
		order = append(order, "fast@35")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"fast@5", "slow@20", "fast@35"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			p.Sleep(10 * Nanosecond)
			order = append(order, i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestEventSignalWakesWaiters(t *testing.T) {
	k := New()
	ev := k.NewEvent("e")
	var woke []Time
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *Proc) {
			p.Wait(ev)
			woke = append(woke, p.Now())
		})
	}
	k.Spawn("signaler", func(p *Proc) {
		p.Sleep(100 * Nanosecond)
		if ev.Waiters() != 3 {
			t.Errorf("waiters = %d, want 3", ev.Waiters())
		}
		ev.Signal()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, w := range woke {
		if w != 100*Nanosecond {
			t.Errorf("waiter woke at %v, want 100ns", w)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := New()
	ev := k.NewEvent("never")
	k.Spawn("stuck", func(p *Proc) { p.Wait(ev) })
	err := k.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	// The error must name the blocked process and the event it waits on.
	for _, want := range []string{`"stuck"`, `"never"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock error %q does not mention %s", err, want)
		}
	}
	k.Shutdown()
	if k.Live() != 0 {
		t.Errorf("live after Shutdown = %d, want 0", k.Live())
	}
}

func TestRunUntilPausesAndResumes(t *testing.T) {
	k := New()
	var ticks int
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(10 * Nanosecond)
			ticks++
		}
	})
	if err := k.RunUntil(35 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	if ticks != 3 {
		t.Errorf("ticks after 35ns = %d, want 3", ticks)
	}
	if k.Now() != 35*Nanosecond {
		t.Errorf("now = %v, want 35ns", k.Now())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Errorf("ticks after full run = %d, want 10", ticks)
	}
}

// A run cut by RunUntil and then Shutdown aborts a process that would never
// finish: its coroutine unwinds and nothing is left live.
func TestShutdownAbortsProcesses(t *testing.T) {
	k := New()
	unwound := false
	k.Spawn("forever", func(p *Proc) {
		defer func() { unwound = true }()
		for {
			p.Sleep(Nanosecond)
		}
	})
	if err := k.RunUntil(100 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if !unwound || k.Live() != 0 {
		t.Errorf("forever unwound %v, live = %d; want true and 0 after Shutdown", unwound, k.Live())
	}
}

func TestSpawnFromRunningProcess(t *testing.T) {
	k := New()
	var childRan Time
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(50 * Nanosecond)
		k.Spawn("child", func(c *Proc) {
			c.Sleep(25 * Nanosecond)
			childRan = c.Now()
		})
		p.Sleep(100 * Nanosecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childRan != 75*Nanosecond {
		t.Errorf("child finished at %v, want 75ns", childRan)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	k := New()
	k.Spawn("p", func(p *Proc) {
		p.Sleep(-5 * Nanosecond)
		if p.Now() != 0 {
			t.Errorf("now = %v, want 0", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcName(t *testing.T) {
	k := New()
	k.Spawn("worker-7", func(p *Proc) {
		if p.Name() != "worker-7" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Kernel() != k {
			t.Error("Kernel() mismatch")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestKernelDeterminism runs the same mixed workload twice and requires an
// identical trace — the core guarantee everything else relies on.
func TestKernelDeterminism(t *testing.T) {
	run := func() []Time {
		k := New()
		var trace []Time
		ev := k.NewEvent("e")
		for i := 0; i < 8; i++ {
			d := Time(i+1) * 7 * Nanosecond
			k.Spawn("p", func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Sleep(d)
					trace = append(trace, p.Now())
					if j == 10 {
						ev.Signal()
					}
				}
			})
		}
		k.Spawn("waiter", func(p *Proc) {
			p.Wait(ev)
			trace = append(trace, p.Now())
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// A RunUntil deadline exactly equal to a wake time runs that wake (the cut
// is strictly-after), and the clock lands exactly on the deadline.
func TestRunUntilDeadlineEqualsWake(t *testing.T) {
	k := New()
	var wokeAt []Time
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10 * Nanosecond)
			wokeAt = append(wokeAt, p.Now())
		}
	})
	if err := k.RunUntil(30 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	if len(wokeAt) != 3 || wokeAt[2] != 30*Nanosecond {
		t.Errorf("wakes = %v, want exactly [10ns 20ns 30ns]", wokeAt)
	}
	if k.Now() != 30*Nanosecond {
		t.Errorf("now = %v, want 30ns", k.Now())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(wokeAt) != 5 {
		t.Errorf("wakes after full run = %d, want 5", len(wokeAt))
	}
}

// A run cut by RunUntil before a same-instant tie breaks the tie as one Run
// does: the first process past the deadline keeps its (wake, seq) place.
func TestSplitRunKeepsTieOrder(t *testing.T) {
	order := func(cut Time) string {
		k := New()
		var got []byte
		for _, name := range []byte("abc") {
			k.Spawn(string(name), func(p *Proc) {
				p.Sleep(10 * Nanosecond)
				got = append(got, name)
			})
		}
		k.SpawnSpin("d", func() (Time, bool) {
			if k.Now() == 0 {
				return 10 * Nanosecond, true
			}
			got = append(got, 'd')
			return 0, false
		})
		if cut >= 0 {
			if err := k.RunUntil(cut); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return string(got)
	}
	want := order(-1)
	if want != "abcd" {
		t.Fatalf("one Run ran %q, want abcd", want)
	}
	for _, cut := range []Time{0, 5 * Nanosecond, 9 * Nanosecond} {
		if got := order(cut); got != want {
			t.Errorf("RunUntil(%v) then Run ran %q, want %q", cut, got, want)
		}
	}
}

// Shutdown must unwind waiters spread across several events, including
// events that also have already-drained peers.
func TestShutdownWithWaitersOnMultipleEvents(t *testing.T) {
	k := New()
	evs := []*Event{k.NewEvent("a"), k.NewEvent("b"), k.NewEvent("c")}
	drained := k.NewEvent("drained")
	for i, ev := range evs {
		ev := ev
		for j := 0; j <= i; j++ {
			k.Spawn("w", func(p *Proc) { p.Wait(ev) })
		}
	}
	k.Spawn("quick", func(p *Proc) { p.Wait(drained) })
	k.Spawn("sig", func(p *Proc) {
		p.Sleep(Nanosecond)
		drained.Signal()
	})
	if err := k.RunUntil(10 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	if got := evs[0].Waiters() + evs[1].Waiters() + evs[2].Waiters(); got != 6 {
		t.Fatalf("waiters before Shutdown = %d, want 6", got)
	}
	k.Shutdown()
	if k.Live() != 0 {
		t.Errorf("live after Shutdown = %d, want 0", k.Live())
	}
	for _, ev := range evs {
		if ev.Waiters() != 0 {
			t.Errorf("event %q still has %d waiters", ev.name, ev.Waiters())
		}
	}
}

// A kernel paused by RunUntil (with a proc parked past the deadline and a
// waiter parked on an event) must resume cleanly from a later Run.
func TestRerunAfterRunUntil(t *testing.T) {
	k := New()
	ev := k.NewEvent("go")
	var waiterWoke, sleeperWoke Time
	k.Spawn("waiter", func(p *Proc) {
		p.Wait(ev)
		waiterWoke = p.Now()
	})
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100 * Nanosecond)
		sleeperWoke = p.Now()
		ev.Signal()
	})
	if err := k.RunUntil(40 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 40*Nanosecond || waiterWoke != 0 || sleeperWoke != 0 {
		t.Fatalf("paused state wrong: now=%v waiter=%v sleeper=%v",
			k.Now(), waiterWoke, sleeperWoke)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sleeperWoke != 100*Nanosecond || waiterWoke != 100*Nanosecond {
		t.Errorf("woke at (%v, %v), want both 100ns", sleeperWoke, waiterWoke)
	}
}

// The steady-state Sleep/Signal hot path must not allocate: parking,
// resuming, waiting, and signaling all recycle their storage once the heap
// and waiter slices have grown to workload size.
func TestSteadyStateZeroAllocs(t *testing.T) {
	k := New()
	ev := k.NewEvent("tick")
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(3 * Nanosecond)
		}
	})
	k.Spawn("waiter", func(p *Proc) {
		for {
			p.Wait(ev)
		}
	})
	k.Spawn("signaler", func(p *Proc) {
		for {
			p.Sleep(10 * Nanosecond)
			ev.Signal()
		}
	})
	k.Spawn("spinner", func(p *Proc) {
		n := 0
		step := func() (Time, bool) {
			n++
			return 2 * Nanosecond, n%50 != 0
		}
		for {
			p.Spin(2*Nanosecond, step)
		}
	})
	deadline := Time(0)
	step := func() {
		deadline += Microsecond
		if err := k.RunUntil(deadline); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm up: grow heap, waiter lists, and event registration
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Errorf("steady-state Sleep/Signal/Spin allocates %v allocs/run, want 0", avg)
	}
	k.Shutdown()
}
func TestResourceProperties(t *testing.T) {
	f := func(holds []uint16) bool {
		var r Resource
		now := Time(0)
		prevBusy := Time(0)
		for _, h := range holds {
			hold := Time(h) * Picosecond
			delay := r.Acquire(now, hold)
			if delay < 0 {
				return false
			}
			if r.BusyUntil() < prevBusy {
				return false
			}
			wantDelay := Time(0)
			if prevBusy > now {
				wantDelay = prevBusy - now
			}
			if delay != wantDelay {
				return false
			}
			prevBusy = r.BusyUntil()
			now += hold / 2 // arrivals at half service rate: backlog grows
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResourceIdleThenBusy(t *testing.T) {
	var r Resource
	if d := r.Acquire(100, 50); d != 0 {
		t.Errorf("idle acquire delay = %d, want 0", d)
	}
	if d := r.Acquire(120, 50); d != 30 {
		t.Errorf("busy acquire delay = %d, want 30", d)
	}
	if r.BusyTotal() != 100 {
		t.Errorf("busyTotal = %d, want 100", r.BusyTotal())
	}
	if b := r.Backlog(150); b != 50 {
		t.Errorf("backlog = %d, want 50", b)
	}
	r.Reset()
	if r.BusyUntil() != 0 || r.BusyTotal() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestHeapOrdering(t *testing.T) {
	var h procHeap
	times := []Time{50, 10, 30, 10, 90, 20}
	for i, w := range times {
		h.push(&Proc{wake: w, seq: uint64(i)})
	}
	if h.peek().wake != 10 {
		t.Errorf("peek = %v, want 10", h.peek().wake)
	}
	var got []Time
	var seqs []uint64
	for {
		p := h.pop()
		if p == nil {
			break
		}
		got = append(got, p.wake)
		seqs = append(seqs, p.seq)
	}
	want := []Time{10, 10, 20, 30, 50, 90}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
	// Equal wake times must preserve insertion order (seq 1 before seq 3).
	if seqs[0] != 1 || seqs[1] != 3 {
		t.Errorf("tie-break order = %v, want seq 1 then 3", seqs[:2])
	}
	if h.pop() != nil {
		t.Error("pop on empty heap should return nil")
	}
}

// spinScript is one process of the Spin differential. At its event j the
// process logs (id, j, now) and sleeps delay[j], or, at a wait event, blocks
// on one of the shared events until it is signaled; a work event also
// signals a shared event or spawns a short-lived child, and only the
// process itself runs it, so a spin step declines it. A spin step waits by
// returning Await's result. A bodiless script runs every event, work
// included, as a step of a SpawnSpin process.
type spinScript struct {
	id       int
	delay    []Time
	work     []bool
	wait     []bool // nil for a script that never waits
	spin     bool   // run the idle events as spin steps
	bodiless bool   // run as a bodiless process
}

// waits reports whether event j blocks on a shared event.
func (s *spinScript) waits(j int) bool { return j < len(s.wait) && s.wait[j] }

type spinLogEntry struct {
	id, j int
	now   Time
}

// spinOpts varies how a spinWorld is run, or how its processes are written.
type spinOpts struct {
	deadlines []Time // RunUntil cuts, in order
	drain     bool   // then Run to completion, which may deadlock
	stopAt    Time   // the run ends with a cut here, and Shutdown; 0 for none
	bodiless  bool   // children and the waiter are SpawnSpin processes
	alone     bool   // no waiter on the shared event
}

// spinRun is what a spinWorld leaves: the event log, the kernel's counters
// and clock, its live processes at the last cut, and the error text of
// the draining Run.
type spinRun struct {
	log             []spinLogEntry
	events, resumes uint64
	now             Time
	live            int
	err             string
}

// spinWorld runs scripts (plus a waiter on the shared event, unless alone)
// through the given RunUntil deadlines and, with drain, a final Run, then
// shuts the kernel down. With stopAt, deadlines past it are cut to it and
// the run ends with RunUntil(stopAt), so Shutdown aborts what is left.
// Scripts wait on ev at even events and on ev2 at odd ones; work events
// signal ev at j%3 == 0 and ev2 at j%3 == 2.
//
// Child id, spawned at its parent's event j, logs (id, i, now) at each of
// its 2+id%3 events and sleeps between them; some also signal the shared
// event, and every fifth ends with a long sleep, so a cut or Shutdown can
// find it still in the heap.
func spinWorld(t *testing.T, scripts []spinScript, o spinOpts) spinRun {
	k := New()
	var log []spinLogEntry
	ev, ev2 := k.NewEvent("ev"), k.NewEvent("ev2")
	waitOn := func(j int) *Event {
		if j%2 == 0 {
			return ev
		}
		return ev2
	}
	childEvent := func(id, i int) {
		log = append(log, spinLogEntry{id, i, k.Now()})
		if (id+i)%4 == 0 {
			ev.Signal()
		}
	}
	child := func(id int) {
		delays := make([]Time, 1+id%3)
		for i := range delays {
			delays[i] = Time((id+i)%3) * Nanosecond
		}
		if id%5 == 0 {
			delays[len(delays)-1] = 200 * Nanosecond
		}
		if !o.bodiless {
			k.Spawn("child", func(c *Proc) {
				for i, d := range delays {
					childEvent(id, i)
					c.Sleep(d)
				}
				childEvent(id, len(delays))
			})
			return
		}
		i := 0
		k.SpawnSpin("child", func() (Time, bool) {
			childEvent(id, i)
			if i == len(delays) {
				return 0, false
			}
			i++
			return delays[i-1], true
		})
	}
	event := func(s *spinScript, j int) {
		log = append(log, spinLogEntry{s.id, j, k.Now()})
		if !s.work[j] {
			return
		}
		switch j % 3 {
		case 0:
			ev.Signal()
		case 1:
			child(1000*s.id + j)
		case 2:
			ev2.Signal()
		}
	}
	for i := range scripts {
		s := &scripts[i]
		name := fmt.Sprintf("p%d", s.id)
		if s.bodiless {
			j := 0
			var p *Proc
			p = k.SpawnSpin(name, func() (Time, bool) {
				if j == len(s.delay) {
					return 0, false
				}
				event(s, j)
				j++
				if s.waits(j - 1) {
					return p.Await(waitOn(j - 1))
				}
				return s.delay[j-1], true
			})
			continue
		}
		k.Spawn(name, func(p *Proc) {
			if !s.spin {
				for j := range s.delay {
					event(s, j)
					if s.waits(j) {
						p.Wait(waitOn(j))
					} else {
						p.Sleep(s.delay[j])
					}
				}
				return
			}
			j := 0
			step := func() (Time, bool) {
				if j == len(s.delay) || s.work[j] {
					return 0, false
				}
				event(s, j)
				j++
				if s.waits(j - 1) {
					return p.Await(waitOn(j - 1))
				}
				return s.delay[j-1], true
			}
			for j < len(s.delay) {
				event(s, j)
				j++
				if s.waits(j - 1) {
					p.Wait(waitOn(j - 1))
					continue
				}
				p.Spin(s.delay[j-1], step)
			}
		})
	}
	switch {
	case o.alone:
	case o.bodiless:
		started := false
		var p *Proc
		p = k.SpawnSpin("waiter", func() (Time, bool) {
			if started {
				log = append(log, spinLogEntry{-1, 0, k.Now()})
			}
			started = true
			return p.Await(ev)
		})
	default:
		k.Spawn("waiter", func(p *Proc) {
			for {
				p.Wait(ev)
				log = append(log, spinLogEntry{-1, 0, p.Now()})
			}
		})
	}
	deadlines := o.deadlines
	if o.stopAt > 0 {
		deadlines = append([]Time{}, deadlines...)
		for i := range deadlines {
			deadlines[i] = min(deadlines[i], o.stopAt)
		}
		deadlines = append(deadlines, o.stopAt)
	}
	for _, d := range deadlines {
		if err := k.RunUntil(d); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	if o.drain {
		err = k.Run()
	}
	r := spinRun{log: log, events: k.Events(), resumes: k.Resumes(), now: k.Now(), live: k.Live()}
	if err != nil {
		if !errors.Is(err, ErrDeadlock) {
			t.Fatal(err)
		}
		r.err = err.Error()
	}
	k.Shutdown()
	if k.Live() != 0 {
		t.Fatalf("%d processes live after Shutdown", k.Live())
	}
	return r
}

// sameRun reports the first difference between two runs' logs, event
// counts, clocks, live counts and run errors, or "".
func sameRun(got, want spinRun) string {
	if len(got.log) != len(want.log) {
		return fmt.Sprintf("%d logged events, want %d", len(got.log), len(want.log))
	}
	for i := range want.log {
		if got.log[i] != want.log[i] {
			return fmt.Sprintf("event %d is %+v, want %+v", i, got.log[i], want.log[i])
		}
	}
	if got.events != want.events || got.now != want.now || got.live != want.live {
		return fmt.Sprintf("events %d at %v with %d live, want %d at %v with %d live",
			got.events, got.now, got.live, want.events, want.now, want.live)
	}
	if got.err != want.err {
		return fmt.Sprintf("run error %q, want %q", got.err, want.err)
	}
	return ""
}

// randomScripts draws one differential's processes.
func randomScripts(rng *rand.Rand) []spinScript {
	scripts := make([]spinScript, 1+rng.Intn(5))
	for i := range scripts {
		n := 1 + rng.Intn(60)
		s := spinScript{id: i, delay: make([]Time, n), work: make([]bool, n), spin: rng.Intn(4) != 0}
		for j := range s.delay {
			s.delay[j] = Time(rng.Intn(4)) * Nanosecond
			s.work[j] = rng.Intn(10) < 3
		}
		scripts[i] = s
	}
	return scripts
}

// TestSpinMatchesSleepLoops is a randomized differential: processes whose
// idle events run as spin steps must produce exactly the event order,
// clock and event count of the same processes written as Sleep loops,
// across ties at equal instants, steps that decline at random events, and
// RunUntil deadlines that cut into spins.
func TestSpinMatchesSleepLoops(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scripts := randomScripts(rng)
		o := spinOpts{deadlines: []Time{Time(rng.Intn(40)) * Nanosecond, Time(rng.Intn(80)) * Nanosecond, 1000 * Nanosecond}}
		plain := make([]spinScript, len(scripts))
		for i, s := range scripts {
			s.spin = false
			plain[i] = s
		}
		want := spinWorld(t, plain, o)
		got := spinWorld(t, scripts, o)
		if diff := sameRun(got, want); diff != "" {
			t.Fatalf("seed %d: %s", seed, diff)
		}
		if got.resumes > want.resumes {
			t.Fatalf("seed %d: spin run resumed coroutines %d times, more than the sleep loops' %d", seed, got.resumes, want.resumes)
		}
	}
}

// TestSpawnSpinMatchesSpawn is a randomized differential for bodiless
// processes: short-lived children written as SpawnSpin steps must produce
// exactly the event order, clock, event count and live count of the same
// children written as Spawn bodies that sleep, beside competing sleepers
// and spinners, across ties at equal instants, signals from steps, RunUntil
// cuts, and Shutdown with bodiless processes still in the heap. They must
// cost no coroutine switch: each child the Spawn run started saves at least
// its first resume; in a world with every process bodiless, nothing
// resumes.
func TestSpawnSpinMatchesSpawn(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scripts := randomScripts(rng)
		o := spinOpts{deadlines: []Time{Time(rng.Intn(40)) * Nanosecond,
			Time(rng.Intn(120)) * Nanosecond, Time(rng.Intn(300)) * Nanosecond}}
		if rng.Intn(3) == 0 {
			o.stopAt = Time(1+rng.Intn(150)) * Nanosecond
		}
		want := spinWorld(t, scripts, o)
		o.bodiless = true
		got := spinWorld(t, scripts, o)
		if diff := sameRun(got, want); diff != "" {
			t.Fatalf("seed %d: %s", seed, diff)
		}
		started := uint64(0)
		for _, e := range want.log {
			if e.id >= 1000 && e.j == 0 {
				started++
			}
		}
		if got.resumes+started > want.resumes {
			t.Fatalf("seed %d: bodiless run resumed %d times, the Spawn run %d with %d children started",
				seed, got.resumes, want.resumes, started)
		}

		// The same world with every process bodiless and no waiter.
		o.alone, o.bodiless = true, false
		want = spinWorld(t, scripts, o)
		all := make([]spinScript, len(scripts))
		for i, s := range scripts {
			s.bodiless = true
			all[i] = s
		}
		o.bodiless = true
		got = spinWorld(t, all, o)
		if diff := sameRun(got, want); diff != "" {
			t.Fatalf("seed %d, every process bodiless: %s", seed, diff)
		}
		if got.resumes != 0 {
			t.Fatalf("seed %d: a world of bodiless processes resumed %d coroutines", seed, got.resumes)
		}
	}
}

// TestAwaitMatchesWait is a randomized differential for Await: scripts
// that block on the shared events by returning Await's result, from the
// Spin steps of bodies and from bodiless processes, must produce exactly
// the event order, clock, event count, live count and run error of the
// same scripts blocking with Wait in Spawn bodies. Each event gathers
// several waiters (the scripts and the waiter on ev), signals come from
// steps and from bodies, RunUntil cuts find processes waiting, Shutdown
// aborts the waiters left, and a draining Run deadlocks on the
// ones nothing will signal. A world with every process bodiless resumes
// no coroutine, and its deadlocks name bodiless waiters.
func TestAwaitMatchesWait(t *testing.T) {
	deadlocks := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scripts := randomScripts(rng)
		for i := range scripts {
			s := &scripts[i]
			s.wait = make([]bool, len(s.delay))
			for j := range s.wait {
				s.wait[j] = rng.Intn(10) < 2
			}
		}
		o := spinOpts{deadlines: []Time{Time(rng.Intn(40)) * Nanosecond,
			Time(rng.Intn(120)) * Nanosecond, Time(rng.Intn(300)) * Nanosecond}}
		switch rng.Intn(3) {
		case 0:
			o.stopAt = Time(1+rng.Intn(150)) * Nanosecond
		case 1:
			o.drain = true
		}
		bodies := make([]spinScript, len(scripts))
		all := make([]spinScript, len(scripts))
		for i, s := range scripts {
			s.spin, s.bodiless = false, false
			bodies[i] = s
			s.bodiless = true
			all[i] = s
		}
		want := spinWorld(t, bodies, o)
		if got := spinWorld(t, scripts, o); sameRun(got, want) != "" {
			t.Fatalf("seed %d, Await in Spin steps: %s", seed, sameRun(got, want))
		}
		o.bodiless = true
		got := spinWorld(t, all, o)
		if diff := sameRun(got, want); diff != "" {
			t.Fatalf("seed %d, every process bodiless: %s", seed, diff)
		}
		if got.resumes != 0 {
			t.Fatalf("seed %d: a world of bodiless processes resumed %d coroutines", seed, got.resumes)
		}
		if got.err != "" {
			deadlocks++
			if !strings.Contains(got.err, `"waiter" on event "ev"`) {
				t.Fatalf("seed %d: deadlock %q does not name the bodiless waiter", seed, got.err)
			}
		}
	}
	if deadlocks == 0 {
		t.Error("no seed deadlocked: the draining runs never left a bodiless waiter")
	}
}

// Await blocks only the process whose step is running: called from a
// body, or from another process's step, it panics.
func TestAwaitOutsideOwnStepPanics(t *testing.T) {
	for _, from := range []string{"body", "other step"} {
		k := New()
		ev := k.NewEvent("ev")
		target := k.SpawnSpin("target", func() (Time, bool) { return Nanosecond, true })
		if from == "body" {
			k.Spawn("caller", func(*Proc) { target.Await(ev) })
		} else {
			k.SpawnSpin("caller", func() (Time, bool) { return target.Await(ev) })
		}
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "Await outside the process's own spin step") {
					t.Errorf("from a %s: panic %q, want the own-step guard", from, msg)
				}
			}()
			_ = k.Run()
		}()
	}
}

// A RunUntil deadline inside a spin parks the spinner with its step intact:
// the next run picks the spin up where it stopped.
func TestSpinAcrossRunUntil(t *testing.T) {
	k := New()
	var steps []Time
	k.Spawn("spinner", func(p *Proc) {
		step := func() (Time, bool) {
			steps = append(steps, k.Now())
			return 10 * Nanosecond, len(steps) < 6
		}
		p.Spin(10*Nanosecond, step)
		if p.Now() != 60*Nanosecond {
			t.Errorf("spin returned at %v, want 60ns", p.Now())
		}
	})
	if err := k.RunUntil(35 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 || k.Now() != 35*Nanosecond {
		t.Fatalf("after RunUntil(35ns): %d steps at %v, want 3 at 35ns", len(steps), k.Now())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, at := range steps {
		if want := Time(i+1) * 10 * Nanosecond; at != want {
			t.Errorf("step %d ran at %v, want %v", i, at, want)
		}
	}
	if k.Events() != 7 || k.Resumes() != 2 {
		t.Errorf("events %d, resumes %d; want 7 and 2", k.Events(), k.Resumes())
	}
}

// TestSpawnSpinAt: a batch of bodiless processes spawned by SpawnSpinAt at
// a RunUntil cut first runs at now + d; at equal wakes the batch runs in
// spawn order, behind the entries pushed before it and ahead of the pushes
// its own steps make. The same batch spawned by SpawnSpin, each process
// sleeping d in its first step, makes the same trace at one more event per
// process.
func TestSpawnSpinAt(t *testing.T) {
	batch := []struct {
		name string
		d    Time
	}{{"b0", 6 * Nanosecond}, {"b1", 6 * Nanosecond}, {"b2", 3 * Nanosecond}, {"b3", 0}}
	run := func(at bool) ([]string, uint64) {
		k := New()
		var trace []string
		log := func(name string, j int) {
			trace = append(trace, fmt.Sprintf("%s#%d@%d", name, j, k.Now()/Nanosecond))
		}
		early := 0
		k.SpawnSpin("early", func() (Time, bool) {
			early++
			if early == 1 {
				return 10 * Nanosecond, true
			}
			log("early", 0)
			return 0, false
		})
		k.Spawn("tick", func(p *Proc) {
			p.Sleep(7 * Nanosecond)
			log("tick", 0)
			p.Sleep(3 * Nanosecond)
			log("tick", 1)
		})
		if err := k.RunUntil(4 * Nanosecond); err != nil {
			t.Fatal(err)
		}
		for _, b := range batch {
			j := 0
			step := func() (Time, bool) {
				log(b.name, j)
				j++
				return 0, j < 2
			}
			if at {
				k.SpawnSpinAt(b.name, b.d, step)
				continue
			}
			waited := false
			k.SpawnSpin(b.name, func() (Time, bool) {
				if !waited {
					waited = true
					return b.d, true
				}
				return step()
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return trace, k.Events()
	}
	got, events := run(true)
	want := "b3#0@4 b3#1@4 tick#0@7 b2#0@7 b2#1@7 early#0@10 b0#0@10 b1#0@10 tick#1@10 b0#1@10 b1#1@10"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("SpawnSpinAt trace\n got %s\nwant %s", s, want)
	}
	slept, sleptEvents := run(false)
	if s := strings.Join(slept, " "); s != want {
		t.Errorf("SpawnSpin trace with a first step sleeping d\n got %s\nwant %s", s, want)
	}
	if sleptEvents != events+uint64(len(batch)) {
		t.Errorf("events: %d with SpawnSpinAt, %d sleeping d; want %d fewer", events, sleptEvents, len(batch))
	}
}

// Shutdown aborts a parked spinner: its coroutine unwinds, its step is never
// called again, and the kernel still runs later spawns.
func TestSpinShutdown(t *testing.T) {
	k := New()
	steps := 0
	unwound := false
	k.Spawn("spinner", func(p *Proc) {
		defer func() { unwound = true }()
		step := func() (Time, bool) {
			steps++
			return Nanosecond, true
		}
		p.Spin(Nanosecond, step)
		t.Error("spinner resumed")
	})
	if err := k.RunUntil(50 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if !unwound || k.Live() != 0 {
		t.Fatalf("spinner unwound %v, live %d", unwound, k.Live())
	}
	before := steps
	var woke []Time
	k.Spawn("after", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Nanosecond)
			woke = append(woke, p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != before || len(woke) != 3 {
		t.Errorf("%d steps after abort, %d wakes of the later process", steps-before, len(woke))
	}
}

// A process spawned after a spinner left Spin and finished sleeps normally,
// with no stale step.
func TestSpinRespawn(t *testing.T) {
	k := New()
	steps := 0
	k.Spawn("spinner", func(p *Proc) {
		step := func() (Time, bool) {
			steps++
			return Nanosecond, steps < 5
		}
		p.Spin(Nanosecond, step)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var woke []Time
	start := k.Now()
	k.Spawn("respawned", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(2 * Nanosecond)
			woke = append(woke, p.Now()-start)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 5 || len(woke) != 3 || woke[2] != 6*Nanosecond {
		t.Errorf("steps %d, respawned wakes %v; want 5 steps and wakes every 2ns", steps, woke)
	}
	k.Shutdown()
}

// A step that blocks panics with the spinner's name, whether the scheduler
// runs it on the spinner's own coroutine or on the run loop.
func TestSpinBlockingStepPanics(t *testing.T) {
	for _, peer := range []bool{false, true} {
		k := New()
		k.Spawn("spinner", func(p *Proc) {
			step := func() (Time, bool) {
				p.Sleep(Nanosecond)
				return Nanosecond, true
			}
			p.Spin(Nanosecond, step)
		})
		if peer {
			k.Spawn("peer", func(*Proc) {})
		}
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, `spin step of "spinner" blocked`) {
					t.Errorf("peer %v: panic %q, want the blocked-step guard naming the spinner", peer, msg)
				}
			}()
			_ = k.Run()
		}()
	}
}

// goroutinesSettledTo returns the goroutine count once it has fallen to
// want, or what it reads after polling briefly for that.
func goroutinesSettledTo(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// A body that returns ends its coroutine in that event, mid-run, while
// other processes are still live; Shutdown unwinds the rest.
func TestFinishedBodyReleasesCoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New()
	k.Spawn("short", func(p *Proc) { p.Sleep(Nanosecond) })
	k.Spawn("long", func(p *Proc) { p.Sleep(100 * Nanosecond) })
	if err := k.RunUntil(10 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	if n := goroutinesSettledTo(base + 1); k.Live() != 1 || n > base+1 {
		t.Errorf("after the cut: %d live, %d goroutines; want 1 live and the baseline %d + 1", k.Live(), n, base)
	}
	k.Shutdown()
	if n := goroutinesSettledTo(base); n > base {
		t.Errorf("after Shutdown: %d goroutines, want the baseline %d", n, base)
	}
}

// A process spawned across a RunUntil cut, while another is still live,
// starts at the cut's clock; a run that drains the kernel leaves no
// coroutine behind.
func TestRespawnAcrossRunUntil(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New()
	k.Spawn("short", func(p *Proc) { p.Sleep(Nanosecond) })
	k.Spawn("long", func(p *Proc) { p.Sleep(100 * Nanosecond) })
	if err := k.RunUntil(10 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	woke := Time(0)
	k.Spawn("respawned", func(p *Proc) {
		p.Sleep(5 * Nanosecond)
		woke = p.Now()
	})
	if err := k.RunUntil(50 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	if woke != 15*Nanosecond || k.Live() != 1 {
		t.Errorf("respawned woke at %v with %d live; want 15ns and 1", woke, k.Live())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n := goroutinesSettledTo(base); k.Live() != 0 || n > base {
		t.Errorf("after the drain: %d live, %d goroutines; want 0 and the baseline %d", k.Live(), n, base)
	}
}

// TestDeadlockNamesManyEvents: 100 processes block for good, each on its own
// event, while a churner waits on 600 fresh events in turn; the deadlock
// error must still name the blocked processes and count them all.
func TestDeadlockNamesManyEvents(t *testing.T) {
	const blocked, churn = 100, 600
	k := New()
	for i := 0; i < blocked; i++ {
		ev := k.NewEvent(fmt.Sprintf("stuck%d", i))
		k.Spawn(fmt.Sprintf("blocked%d", i), func(p *Proc) { p.Wait(ev) })
	}
	k.Spawn("churner", func(p *Proc) {
		p.Sleep(Nanosecond) // after every blocked process waits
		for i := 0; i < churn; i++ {
			ev := k.NewEvent(fmt.Sprintf("churn%d", i))
			k.Spawn("signaler", func(p *Proc) {
				p.Sleep(Nanosecond)
				ev.Signal()
			})
			p.Wait(ev)
		}
	})
	err := k.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	for _, want := range []string{`"blocked0" on event "stuck0"`, "(100 blocked total)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock error %q does not contain %q", err, want)
		}
	}
	k.Shutdown()
}

// parkCounter is a ParkProbe that counts parks per process and checks
// that each runs on the parking process's own stack.
type parkCounter struct {
	t     *testing.T
	parks map[string]int
	k     *Kernel
}

func (c *parkCounter) Park(p *Proc) {
	if c.k.Resumes() == 0 {
		c.t.Errorf("%s parked before any process was resumed", p.Name())
	}
	c.parks[p.Name()]++
}

// TestParkProbe checks that the park probe sees exactly the parks that
// switch a process out: every resume but a process's first follows one,
// so parks equal resumes minus starts; a bodiless process reports none;
// and the probe changes nothing about the run.
func TestParkProbe(t *testing.T) {
	run := func(probe bool) (uint64, uint64, Time, map[string]int) {
		k := New()
		c := &parkCounter{t: t, parks: map[string]int{}, k: k}
		if probe {
			k.SetParkProbe(c)
		}
		for i := 0; i < 2; i++ {
			k.Spawn(fmt.Sprintf("ping%d", i), func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(Time(3 + i))
				}
			})
		}
		n := 0
		k.SpawnSpin("spinner", func() (Time, bool) { n++; return 7, n < 6 })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Events(), k.Resumes(), k.Now(), c.parks
	}
	events, resumes, now, parks := run(true)
	e0, r0, n0, _ := run(false)
	if events != e0 || resumes != r0 || now != n0 {
		t.Fatalf("probed run: %d events, %d resumes, clock %d; unprobed %d, %d, %d", events, resumes, now, e0, r0, n0)
	}
	total := 0
	for _, n := range parks {
		total += n
	}
	if starts := uint64(2); uint64(total) != resumes-starts {
		t.Errorf("%d parks reported over %d resumes of %d started processes, want resumes - starts", total, resumes, starts)
	}
	if parks["spinner"] != 0 || parks["ping0"] == 0 || parks["ping1"] == 0 {
		t.Errorf("parks by process %v: want both pingers and not the spinner", parks)
	}
}
