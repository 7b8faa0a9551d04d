package coherence

import (
	"fmt"
	"math/rand"
	"testing"

	"ccnic/internal/fault"
	"ccnic/internal/interconn"
	"ccnic/internal/mem"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// multiLine is the agent's multi-line access surface, which the line walk
// and its Sleep-loop reference both implement.
type multiLine interface {
	Read(p *sim.Proc, addr mem.Addr, size int) sim.Time
	Write(p *sim.Proc, addr mem.Addr, size int) sim.Time
	Poll(p *sim.Proc, addr mem.Addr, size int) sim.Time
	StreamRead(p *sim.Proc, addr mem.Addr, size int) sim.Time
	StreamWrite(p *sim.Proc, addr mem.Addr, size int) sim.Time
	WriteAsync(p *sim.Proc, addr mem.Addr, size int) sim.Time
	WriteNT(p *sim.Proc, addr mem.Addr, size int) sim.Time
	GatherRead(p *sim.Proc, lines []mem.Addr) sim.Time
	ScatterWrite(p *sim.Proc, lines []mem.Addr) sim.Time
}

// sleepLoops is the reference the line walk must match event for event:
// the agent's multi-line accesses written as per-line Sleep loops, each
// line a coroutine switch into the issuing process whenever another process
// wakes in between.
type sleepLoops struct{ a *Agent }

// sleepPressure sleeps the cache pressure a's next access draws, when it
// is positive, as its own event.
func sleepPressure(p *sim.Proc, a *Agent) {
	if d := a.Pressure(); d > 0 {
		p.Sleep(d)
	}
}

func (l sleepLoops) Read(p *sim.Proc, addr mem.Addr, size int) sim.Time {
	return l.serial(p, addr, size, false, true)
}

func (l sleepLoops) Write(p *sim.Proc, addr mem.Addr, size int) sim.Time {
	return l.serial(p, addr, size, true, true)
}

func (l sleepLoops) Poll(p *sim.Proc, addr mem.Addr, size int) sim.Time {
	return l.serial(p, addr, size, false, false)
}

func (l sleepLoops) serial(p *sim.Proc, addr mem.Addr, size int, write, train bool) sim.Time {
	a := l.a
	sleepPressure(p, a)
	if size <= 0 {
		size = 1
	}
	total := sim.Time(0)
	mem.Lines(addr, size, func(line mem.Addr) {
		full := write && line >= addr && line+mem.LineSize <= addr+mem.Addr(size)
		r := a.sys.access(a, line, write, false, full)
		total += r.lat
		p.Sleep(r.lat)
		if !write {
			a.sys.commitRead(a, line)
		}
		if train {
			a.trainPrefetch(line, write)
		}
	})
	return total
}

func (l sleepLoops) StreamRead(p *sim.Proc, addr mem.Addr, size int) sim.Time {
	return l.stream(p, addr, size, false)
}

func (l sleepLoops) StreamWrite(p *sim.Proc, addr mem.Addr, size int) sim.Time {
	return l.stream(p, addr, size, true)
}

func (l sleepLoops) stream(p *sim.Proc, addr mem.Addr, size int, write bool) sim.Time {
	a := l.a
	sleepPressure(p, a)
	if size <= 0 {
		size = 1
	}
	total := sim.Time(0)
	firstLine := mem.LineOf(addr)
	mem.Lines(addr, size, func(line mem.Addr) {
		full := write && line >= addr && line+mem.LineSize <= addr+mem.Addr(size)
		total += l.overlapLine(p, line, write, full, line == firstLine)
	})
	a.trainPrefetch(firstLine, write)
	return total
}

func (l sleepLoops) GatherRead(p *sim.Proc, lines []mem.Addr) sim.Time {
	return l.gather(p, lines, false)
}

func (l sleepLoops) ScatterWrite(p *sim.Proc, lines []mem.Addr) sim.Time {
	return l.gather(p, lines, true)
}

func (l sleepLoops) gather(p *sim.Proc, lines []mem.Addr, write bool) sim.Time {
	sleepPressure(p, l.a)
	total := sim.Time(0)
	for i, line := range lines {
		total += l.overlapLine(p, line, write, write, i == 0)
	}
	return total
}

func (l sleepLoops) overlapLine(p *sim.Proc, line mem.Addr, write, full, first bool) sim.Time {
	a := l.a
	r := a.sys.access(a, line, write, false, full)
	cost := r.lat
	if !first {
		cost = max(a.bwCost(r.data), r.queue) + r.stall
	}
	p.Sleep(cost)
	if !write {
		a.sys.commitRead(a, line)
	}
	return cost
}

func (l sleepLoops) WriteAsync(p *sim.Proc, addr mem.Addr, size int) (visibleAt sim.Time) {
	a := l.a
	sleepPressure(p, a)
	if size <= 0 {
		size = 1
	}
	visibleAt = p.Now()
	mem.Lines(addr, size, func(line mem.Addr) {
		full := line >= addr && line+mem.LineSize <= addr+mem.Addr(size)
		r := a.sys.access(a, line, true, false, full)
		issue := r.lat - r.stall
		if issue > StoreIssueCost {
			issue = StoreIssueCost
		}
		issue += r.stall
		if v := p.Now() + r.lat; v > visibleAt {
			visibleAt = v
		}
		p.Sleep(issue)
		a.trainPrefetch(line, true)
	})
	if v := p.Now(); v > visibleAt {
		visibleAt = v
	}
	return visibleAt
}

func (l sleepLoops) WriteNT(p *sim.Proc, addr mem.Addr, size int) sim.Time {
	a := l.a
	if size <= 0 {
		size = 1
	}
	s := a.sys
	total := sim.Time(0)
	mem.Lines(addr, size, func(line mem.Addr) {
		now := s.k.Now()
		s.dropEverywhere(line, a.socket)
		home := mem.Home(line)
		perLine := s.ntLineCost
		if home != a.socket {
			q := s.link.Weighted(now, interconn.DirFromTo(a.socket, home),
				mem.LineSize, s.plat.NTWritePenalty)
			if q > perLine {
				perLine = q
			}
			s.counters[a.socket].RemoteNT++
		}
		total += perLine
		p.Sleep(perLine)
	})
	return total
}

// walkKinds names the accesses a walk script draws from; the index is a
// walkOp's kind.
var walkKinds = []string{"Read", "Write", "Poll", "StreamRead", "StreamWrite",
	"WriteAsync", "WriteNT", "GatherRead", "ScatterWrite"}

const (
	walkRegion   = 40 // lines per home in a walk script's shared region
	walkGatherAt = 7  // walkKinds from here on take a line list
)

// walkOp is one access of a walk script, in terms of the script's region so
// it replays on any system.
type walkOp struct {
	kind  int
	think sim.Time // sleep before the access
	// A range access covers n lines from line first of home's region,
	// starting off bytes into the first and ending trim bytes short of
	// the last; size0 makes it a zero-byte access instead.
	home, first, n, off, trim int
	size0                     bool
	gather                    []int // a list access: region lines, 2*idx+home
}

// walkScript is a seeded multi-process access script: walkers issue
// multi-line accesses of every kind over one shared region, and sleepers
// wake at instants that tie with the walkers' line costs and store to the
// region one line at a time.
type walkScript struct {
	walkers      [][]walkOp
	sleeperDelay [][]sim.Time
	sleeperStore [][]int // region line stored to at each wake, or -1
	prefetch     [2]bool
	faults       bool
	cut          sim.Time // a RunUntil deadline before the run to completion
}

func genWalkScript(seed int64, plat *platform.Platform) walkScript {
	rng := rand.New(rand.NewSource(seed))
	// Sleeper delays tie with the costs a walk charges per line.
	ties := []sim.Time{0, sim.Nanosecond, plat.L2Hit, plat.LLCHit, plat.LocalDRAM,
		StoreIssueCost, 3 * sim.Nanosecond, 5 * sim.Nanosecond}
	sc := walkScript{
		prefetch: [2]bool{rng.Intn(2) == 0, rng.Intn(2) == 0},
		faults:   rng.Intn(4) == 0,
		cut:      sim.Time(rng.Intn(3000)) * sim.Nanosecond,
	}
	sc.walkers = make([][]walkOp, 3+rng.Intn(3))
	for w := range sc.walkers {
		ops := make([]walkOp, 10+rng.Intn(20))
		for i := range ops {
			op := walkOp{kind: rng.Intn(len(walkKinds)), think: ties[rng.Intn(len(ties))]}
			n := 1 + rng.Intn(32)
			if rng.Intn(4) == 0 {
				n = 1 + rng.Intn(3)
			}
			if op.kind >= walkGatherAt {
				op.gather = make([]int, n)
				for j := range op.gather {
					op.gather[j] = rng.Intn(2 * walkRegion)
				}
			} else {
				op.home, op.n = rng.Intn(2), n
				op.first = rng.Intn(walkRegion - n + 1)
				if rng.Intn(2) == 0 {
					op.off, op.trim = rng.Intn(mem.LineSize), rng.Intn(mem.LineSize)
					if n == 1 && op.off+op.trim >= mem.LineSize {
						op.trim = mem.LineSize - 1 - op.off
					}
				}
				op.size0 = n == 1 && rng.Intn(10) == 0
			}
			ops[i] = op
		}
		sc.walkers[w] = ops
	}
	sc.sleeperDelay = make([][]sim.Time, 2)
	sc.sleeperStore = make([][]int, 2)
	for s := range sc.sleeperDelay {
		n := 200 + rng.Intn(400)
		sc.sleeperDelay[s] = make([]sim.Time, n)
		sc.sleeperStore[s] = make([]int, n)
		for i := range sc.sleeperDelay[s] {
			sc.sleeperDelay[s][i] = ties[rng.Intn(len(ties))]
			sc.sleeperStore[s][i] = -1
			if rng.Intn(8) == 0 {
				sc.sleeperStore[s][i] = rng.Intn(2 * walkRegion)
			}
		}
	}
	return sc
}

// walkEntry is one logged step of a walk world: a walker's access (op >= 0)
// with its result and completion time, or a sleeper's wake (op < 0).
type walkEntry struct {
	proc, op   int
	start, end sim.Time
	ret        sim.Time
}

// walkOutcome is everything a walk world's run exposes.
type walkOutcome struct {
	log      []walkEntry
	events   uint64
	resumes  uint64
	now      sim.Time
	counters [2]Counters
	link     interconn.Stats
}

// walkWorld replays sc on a fresh system, issuing every access through the
// line walk or, with loops, through the Sleep-loop reference.
func walkWorld(t *testing.T, sc walkScript, seed int64, proto Protocol, loops bool) walkOutcome {
	t.Helper()
	k := sim.New()
	s := NewSystemProto(k, platform.ICX(), proto)
	s.SetPrefetch(0, sc.prefetch[0])
	s.SetPrefetch(1, sc.prefetch[1])
	if sc.faults {
		plan, err := fault.ParsePlan(fmt.Sprintf("seed=%d,all=0.05", seed))
		if err != nil {
			t.Fatal(err)
		}
		s.SetFaults(fault.NewInjector(plan, 0))
	}
	var region [2]mem.Addr
	for h := range region {
		region[h] = s.Space().AllocLines(h, walkRegion)
	}
	lineAt := func(j int) mem.Addr { return region[j%2] + mem.Addr(j/2)*mem.LineSize }
	access := func(a *Agent) multiLine {
		if loops {
			return sleepLoops{a}
		}
		return a
	}
	var out walkOutcome
	done := 0
	for w, ops := range sc.walkers {
		a := s.NewAgent(w%2, fmt.Sprintf("walker%d", w))
		m := access(a)
		k.Spawn(a.Name(), func(p *sim.Proc) {
			var lines []mem.Addr
			for i, op := range ops {
				p.Sleep(op.think)
				start := p.Now()
				addr := region[op.home] + mem.Addr(op.first*mem.LineSize+op.off)
				size := op.n*mem.LineSize - op.off - op.trim
				if op.size0 {
					size = 0
				}
				lines = lines[:0]
				for _, j := range op.gather {
					lines = append(lines, lineAt(j))
				}
				var ret sim.Time
				switch walkKinds[op.kind] {
				case "Read":
					ret = m.Read(p, addr, size)
				case "Write":
					ret = m.Write(p, addr, size)
				case "Poll":
					ret = m.Poll(p, addr, size)
				case "StreamRead":
					ret = m.StreamRead(p, addr, size)
				case "StreamWrite":
					ret = m.StreamWrite(p, addr, size)
				case "WriteAsync":
					ret = m.WriteAsync(p, addr, size)
				case "WriteNT":
					ret = m.WriteNT(p, addr, size)
				case "GatherRead":
					ret = m.GatherRead(p, lines)
				case "ScatterWrite":
					ret = m.ScatterWrite(p, lines)
				}
				out.log = append(out.log, walkEntry{proc: w, op: i, start: start, end: p.Now(), ret: ret})
			}
			done++
		})
	}
	for i, delays := range sc.sleeperDelay {
		a := s.NewAgent(i%2, fmt.Sprintf("sleeper%d", i))
		m := access(a)
		stores := sc.sleeperStore[i]
		k.Spawn(a.Name(), func(p *sim.Proc) {
			for j := 0; done < len(sc.walkers); j = (j + 1) % len(delays) {
				p.Sleep(delays[j])
				if l := stores[j]; l >= 0 {
					m.Write(p, lineAt(l), 8)
				}
				out.log = append(out.log, walkEntry{proc: -1 - i, op: -1, start: p.Now(), end: p.Now()})
			}
		})
	}
	if err := k.RunUntil(sc.cut); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("seed %d %v loops=%v: %v", seed, proto, loops, err)
	}
	out.events, out.resumes, out.now = k.Events(), k.Resumes(), k.Now()
	out.counters = [2]Counters{s.Counters(0), s.Counters(1)}
	out.link = s.Link().Stats()
	return out
}

// TestLineWalkMatchesSleepLoops is a randomized differential: seeded scripts
// of multi-line accesses of every kind, 1-32 lines over one shared region,
// from walkers on both sockets beside sleepers that tie with their line
// costs and store into the lines they walk, must give every access the same
// result and completion time, in the same interleaving, with the same event
// count, protocol counters and link traffic, whether each access is a line
// walk or the per-line Sleep loop it replaced. Some scripts arm a fault
// plan, whose draws must land in the same order, and every script is cut
// once by a RunUntil deadline.
func TestLineWalkMatchesSleepLoops(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 15
	}
	for _, proto := range []Protocol{ProtoUPI, ProtoCXL} {
		for seed := int64(1); seed <= seeds; seed++ {
			sc := genWalkScript(seed, platform.ICX())
			want := walkWorld(t, sc, seed, proto, true)
			got := walkWorld(t, sc, seed, proto, false)
			if len(got.log) != len(want.log) {
				t.Fatalf("%v seed %d: %d logged steps, want %d", proto, seed, len(got.log), len(want.log))
			}
			for i := range want.log {
				if got.log[i] != want.log[i] {
					t.Fatalf("%v seed %d: step %d is %+v, want %+v", proto, seed, i, got.log[i], want.log[i])
				}
			}
			if got.events != want.events || got.now != want.now {
				t.Fatalf("%v seed %d: %d events ending at %v, want %d at %v", proto, seed, got.events, got.now, want.events, want.now)
			}
			if got.counters != want.counters || got.link != want.link {
				t.Fatalf("%v seed %d: counters %+v link %+v\nwant counters %+v link %+v", proto, seed, got.counters, got.link, want.counters, want.link)
			}
			if got.resumes > want.resumes {
				t.Fatalf("%v seed %d: line walks resumed coroutines %d times, more than the Sleep loops' %d", proto, seed, got.resumes, want.resumes)
			}
		}
	}
}

// TestMultiLineAccessSpins checks that a 24-line access beside a competing
// sleeper costs its process one coroutine resume, however many times the
// sleeper wakes between its lines: the lines after the first run as spin
// steps. The Sleep-loop reference pays a resume per line in the same world,
// which shows the sleeper does compete.
func TestMultiLineAccessSpins(t *testing.T) {
	const n = 24
	for _, tc := range []struct {
		name   string
		access func(m multiLine, p *sim.Proc, base mem.Addr, lines []mem.Addr)
	}{
		{"GatherRead", func(m multiLine, p *sim.Proc, _ mem.Addr, lines []mem.Addr) { m.GatherRead(p, lines) }},
		{"StreamRead", func(m multiLine, p *sim.Proc, base mem.Addr, _ []mem.Addr) { m.StreamRead(p, base, n*mem.LineSize) }},
		{"ScatterWrite", func(m multiLine, p *sim.Proc, _ mem.Addr, lines []mem.Addr) { m.ScatterWrite(p, lines) }},
		{"WriteNT", func(m multiLine, p *sim.Proc, base mem.Addr, _ []mem.Addr) { m.WriteNT(p, base, n*mem.LineSize) }},
	} {
		for _, loops := range []bool{false, true} {
			k := sim.New()
			s := NewSystem(k, platform.ICX())
			a := s.NewAgent(1, "nic")
			base := s.Space().AllocLines(0, n)
			lines := make([]mem.Addr, n)
			for i := range lines {
				lines[i] = base + mem.Addr(i)*mem.LineSize
			}
			var m multiLine = a
			if loops {
				m = sleepLoops{a}
			}
			var sleeperResumes, resumes uint64
			done := false
			k.Spawn("sleeper", func(p *sim.Proc) {
				for !done {
					r := k.Resumes()
					p.Sleep(sim.Nanosecond)
					if k.Resumes() != r {
						sleeperResumes++
					}
				}
			})
			k.Spawn("walker", func(p *sim.Proc) {
				p.Sleep(10 * sim.Nanosecond)
				r, sr := k.Resumes(), sleeperResumes
				tc.access(m, p, base, lines)
				resumes = k.Resumes() - r - (sleeperResumes - sr)
				done = true
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			switch {
			case !loops && resumes != 1:
				t.Errorf("%s: the access resumed its process %d times, want 1", tc.name, resumes)
			case loops && resumes < n:
				t.Errorf("%s: the Sleep loops resumed their process %d times, want at least %d: the sleeper does not compete", tc.name, resumes, n)
			}
		}
	}
}

// TestLineWalkAllocs checks that warmed 24-line GatherRead and StreamRead
// walks, each after another socket's stores invalidated the lines, allocate
// nothing: walkers come from the agent's free list, with their step bound.
func TestLineWalkAllocs(t *testing.T) {
	const n = 24
	k := sim.New()
	s := NewSystem(k, platform.ICX())
	host, nic := s.NewAgent(0, "host"), s.NewAgent(1, "nic")
	base := s.Space().AllocLines(0, n)
	lines := make([]mem.Addr, n)
	for i := range lines {
		lines[i] = base + mem.Addr(i)*mem.LineSize
	}
	var gather, stream float64
	done := false
	k.Spawn("sleeper", func(p *sim.Proc) {
		for !done {
			p.Sleep(sim.Nanosecond)
		}
	})
	k.Spawn("walker", func(p *sim.Proc) {
		gatherRound := func() {
			nic.ScatterWrite(p, lines)
			host.GatherRead(p, lines)
		}
		streamRound := func() {
			nic.StreamWrite(p, base, n*mem.LineSize)
			host.StreamRead(p, base, n*mem.LineSize)
		}
		gatherRound()
		streamRound()
		gather = testing.AllocsPerRun(20, gatherRound)
		stream = testing.AllocsPerRun(20, streamRound)
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if gather != 0 || stream != 0 {
		t.Errorf("warmed 24-line walks allocate: gather %v, stream %v allocs/run; want 0", gather, stream)
	}
}
