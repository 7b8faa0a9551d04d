package bufpool

import (
	"fmt"
	"math/rand"
	"testing"

	"ccnic/internal/coherence"
	"ccnic/internal/fault"
	"ccnic/internal/interconn"
	"ccnic/internal/mem"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// bursts is the port's burst surface, which the burst walks and their
// per-buffer reference both implement.
type bursts interface {
	Alloc(p *sim.Proc, size int) *Buf
	AllocBurst(p *sim.Proc, size int, out []*Buf) int
	AllocFed(p *sim.Proc, out []*Buf, feed AllocFeed) int
	Free(p *sim.Proc, b *Buf)
	FreeBurst(p *sim.Proc, bufs []*Buf)
	FreeFed(p *sim.Proc, feed FreeFeed)
}

// perBuffer is the reference the burst walks must match event for event:
// the pool's operations written as per-buffer loops, each charge a Sleep
// (Agent.Exec) or a process-side access, so every charge is a coroutine
// switch into the issuing process whenever another process wakes between.
type perBuffer struct {
	pt  *Port
	cov *burstCoverage
}

// burstCoverage counts the reference's slow paths a script reached.
type burstCoverage struct{ steals, spills, exhausted int }

func (r perBuffer) Alloc(p *sim.Proc, size int) *Buf {
	pt := r.pt
	pl := pt.pool
	c := classOf(pl.cfg.SmallBufs && size <= SmallSize)
	if fl := &pt.lists[c]; pl.cfg.Recycle && len(fl.recycle) > 0 {
		b := fl.recycle[len(fl.recycle)-1]
		fl.recycle = fl.recycle[:len(fl.recycle)-1]
		b = pl.take(b)
		pt.agent.Exec(p, stackOpCost)
		return b
	}
	return r.centralAlloc(p, c)
}

func (r perBuffer) centralAlloc(p *sim.Proc, c int) *Buf {
	pt := r.pt
	pl := pt.pool
	fl := &pt.lists[c]
	if len(fl.shard) == 0 {
		if len(pt.lists[classBig].shard) == 0 && len(pl.seed) > 0 {
			pt.claimSeed()
		}
		if c == classSmall {
			pt.carveSmall()
		}
	}
	if len(fl.shard) == 0 {
		r.steal(p, c)
	}
	if len(fl.shard) == 0 {
		r.cov.exhausted++
		return nil
	}
	var out *Buf
	batch := 1
	if pl.cfg.Recycle {
		batch = min(refillBatch, len(fl.shard))
		top := len(fl.shard) - 1
		out = fl.shard[top]
		for i := top - 1; i >= top+1-batch; i-- {
			fl.recycle = append(fl.recycle, fl.shard[i])
		}
		fl.shard = fl.shard[:top+1-batch]
	} else {
		out = fl.shard[0]
		fl.shard = fl.shard[1:]
	}
	depth := len(fl.shard)
	out = pl.take(out)
	pt.agent.Write(p, pt.lockLine, 8)
	r.touchEntries(p, pt, depth, batch, false)
	return out
}

func (r perBuffer) steal(p *sim.Proc, c int) {
	pt := r.pt
	var victim *Port
	best := 0
	for _, o := range pt.pool.ports {
		if n := len(o.lists[c].shard); o != pt && n > best {
			best, victim = n, o
		}
	}
	if victim == nil {
		return
	}
	r.cov.steals++
	src, dst := &victim.lists[c], &pt.lists[c]
	n := (best + 1) / 2
	dst.shard = append(dst.shard, src.shard[len(src.shard)-n:]...)
	src.shard = src.shard[:len(src.shard)-n]
	pt.agent.Write(p, victim.lockLine, 8)
	r.touchEntries(p, victim, len(src.shard), n, false)
}

func (r perBuffer) touchEntries(p *sim.Proc, o *Port, depth, count int, write bool) {
	lines := o.entryLines(nil, depth, count)
	if write {
		r.pt.agent.ScatterWrite(p, lines)
	} else {
		r.pt.agent.GatherRead(p, lines)
	}
}

func (r perBuffer) AllocBurst(p *sim.Proc, size int, out []*Buf) int {
	for i := range out {
		b := r.Alloc(p, size)
		if b == nil {
			return i
		}
		out[i] = b
	}
	return len(out)
}

func (r perBuffer) AllocFed(p *sim.Proc, out []*Buf, feed AllocFeed) int {
	for i := range out {
		size, ok := feed.Size(i)
		if !ok {
			return i
		}
		b := r.Alloc(p, size)
		if b == nil {
			return i
		}
		out[i] = b
		feed.Took(i, b)
	}
	return len(out)
}

func (r perBuffer) Free(p *sim.Proc, b *Buf) {
	pt := r.pt
	pl := pt.pool
	if b.pool != pl || b.state != stateAllocated {
		panic("bufpool test: bad free")
	}
	b.state = stateFree
	pl.allocatedBufs--
	fl := &pt.lists[classOf(b.Small)]
	if pl.cfg.Recycle {
		fl.recycle = append(fl.recycle, b)
		pt.agent.Exec(p, stackOpCost)
		if len(fl.recycle) > pl.cfg.RecycleDepth {
			r.cov.spills++
			n := len(fl.recycle) / 2
			moved := append([]*Buf(nil), fl.recycle[:n]...)
			fl.recycle = append(fl.recycle[:0], fl.recycle[n:]...)
			r.centralFree(p, fl, moved...)
		}
		pl.notify()
		return
	}
	r.centralFree(p, fl, b)
	pl.notify()
}

func (r perBuffer) centralFree(p *sim.Proc, fl *freeList, bufs ...*Buf) {
	depth := len(fl.shard)
	fl.shard = append(fl.shard, bufs...)
	r.pt.agent.Write(p, r.pt.lockLine, 8)
	r.touchEntries(p, r.pt, depth, len(bufs), true)
}

func (r perBuffer) FreeBurst(p *sim.Proc, bufs []*Buf) {
	for _, b := range bufs {
		r.Free(p, b)
	}
}

func (r perBuffer) FreeFed(p *sim.Proc, feed FreeFeed) {
	for i := 0; ; i++ {
		b := feed.Next(i)
		if b == nil {
			return
		}
		r.Free(p, b)
	}
}

// burstOp is one operation of a burst script.
type burstOp struct {
	kind  int      // index into burstKinds
	think sim.Time // sleep before the operation
	port  int      // the issuer's port (the issuer's own, or another's)
	sizes []int    // one per allocation (a burst of one takes sizes[0])
	stop  int      // a fed allocation's feed ends the burst before buffer stop
	frees []int    // picks from the issuer's held buffers, in free order
}

// burstKinds names the operations a burst script draws from.
var burstKinds = []string{"Alloc", "AllocBurst", "AllocFed", "Free", "FreeBurst", "FreeFed"}

// burstScript is a seeded multi-process buffer script: issuers on several
// ports allocate and free in bursts of every kind over one small pool, and
// sleepers wake at instants that tie with the charges and store to the
// ports' lock and entry lines.
type burstScript struct {
	cfg          Config
	faults       bool
	issuers      [][]burstOp
	sleeperDelay [][]sim.Time
	sleeperStore [][]int // a port's lock line (even) or first entry line (odd), or -1
}

var burstSizes = []int{1, 64, SmallSize, SmallSize + 1, 1500, 2048}

func genBurstScript(seed int64, plat *platform.Platform) burstScript {
	rng := rand.New(rand.NewSource(seed))
	ties := []sim.Time{0, sim.Nanosecond, stackOpCost, 2 * stackOpCost, plat.L2Hit, plat.LLCHit,
		plat.LocalDRAM, 5 * sim.Nanosecond}
	sc := burstScript{
		cfg: Config{
			BigCount:     4 + rng.Intn(28),
			BigSize:      2048,
			Shared:       true,
			Recycle:      rng.Intn(3) != 0,
			SmallBufs:    rng.Intn(2) == 0,
			Sequential:   rng.Intn(4) == 0,
			RecycleDepth: 2 + rng.Intn(12),
		},
		faults: rng.Intn(3) == 0,
	}
	sc.issuers = make([][]burstOp, 2+rng.Intn(3))
	for w := range sc.issuers {
		ops := make([]burstOp, 15+rng.Intn(25))
		for i := range ops {
			op := burstOp{kind: rng.Intn(len(burstKinds)), think: ties[rng.Intn(len(ties))], port: w}
			if rng.Intn(5) == 0 {
				op.port = rng.Intn(len(sc.issuers))
			}
			n := 1 + rng.Intn(40)
			size := burstSizes[rng.Intn(len(burstSizes))]
			op.sizes = make([]int, n)
			for j := range op.sizes {
				op.sizes[j] = size
				if rng.Intn(3) == 0 {
					op.sizes[j] = burstSizes[rng.Intn(len(burstSizes))]
				}
			}
			op.stop = rng.Intn(n + 1)
			op.frees = make([]int, n)
			for j := range op.frees {
				op.frees[j] = rng.Intn(1 << 20)
			}
			ops[i] = op
		}
		sc.issuers[w] = ops
	}
	sc.sleeperDelay = make([][]sim.Time, 2)
	sc.sleeperStore = make([][]int, 2)
	for s := range sc.sleeperDelay {
		n := 100 + rng.Intn(200)
		sc.sleeperDelay[s] = make([]sim.Time, n)
		sc.sleeperStore[s] = make([]int, n)
		for i := range sc.sleeperDelay[s] {
			sc.sleeperDelay[s][i] = ties[rng.Intn(len(ties))]
			sc.sleeperStore[s][i] = -1
			if rng.Intn(6) == 0 {
				sc.sleeperStore[s][i] = rng.Intn(2 * len(sc.issuers))
			}
		}
	}
	return sc
}

// burstEntry is one logged step of a burst world: an issuer's operation
// (op >= 0) with its completion time and buffers, a feed call inside one
// (feed > 0: the buffer index plus one), or a sleeper's wake (op < 0).
type burstEntry struct {
	proc, op, feed int
	start, end     sim.Time
	bufs           string // the addresses an operation returned or a feed saw
}

// objectEvent is one probe ObjectEvent: when, and after how many events.
type objectEvent struct {
	now    sim.Time
	events uint64
}

// burstProbe records the pool's ObjectEvent order.
type burstProbe struct {
	k   *sim.Kernel
	log []objectEvent
}

func (pr *burstProbe) LineEvent(mem.Addr) {}
func (pr *burstProbe) Fail(err error)     { panic(err) }
func (pr *burstProbe) ObjectEvent(coherence.Checkable) {
	pr.log = append(pr.log, objectEvent{pr.k.Now(), pr.k.Events()})
}

// burstOutcome is everything a burst world's run exposes.
type burstOutcome struct {
	log      []burstEntry
	objects  []objectEvent
	events   uint64
	resumes  uint64
	now      sim.Time
	counters [2]coherence.Counters
	link     interconn.Stats
}

// scriptFeed is a script's allocation and free feed: it logs each call
// with the instant it runs at.
type scriptFeed struct {
	p     *sim.Proc
	log   *[]burstEntry
	proc  int
	op    int
	sizes []int
	stop  int
	frees []*Buf
}

func (f *scriptFeed) Size(i int) (int, bool) {
	*f.log = append(*f.log, burstEntry{proc: f.proc, op: f.op, feed: i + 1, start: f.p.Now()})
	return f.sizes[i], i < f.stop
}

func (f *scriptFeed) Took(i int, b *Buf) {
	*f.log = append(*f.log, burstEntry{proc: f.proc, op: f.op, feed: i + 1, end: f.p.Now(), bufs: addrs([]*Buf{b})})
}

func (f *scriptFeed) Next(i int) *Buf {
	*f.log = append(*f.log, burstEntry{proc: f.proc, op: f.op, feed: i + 1, start: f.p.Now()})
	if i == len(f.frees) {
		return nil
	}
	return f.frees[i]
}

func addrs(bufs []*Buf) string {
	s := ""
	for _, b := range bufs {
		s += fmt.Sprintf("%#x/%v ", b.Addr, b.Small)
	}
	return s
}

// burstWorld replays sc on a fresh system, issuing every operation through
// the burst walks or, with loops, through the per-buffer reference.
func burstWorld(t *testing.T, sc burstScript, seed int64, loops bool, cov *burstCoverage) burstOutcome {
	t.Helper()
	k := sim.New()
	s := coherence.NewSystem(k, platform.ICX())
	pr := &burstProbe{k: k}
	s.SetProbe(pr)
	if sc.faults {
		plan, err := fault.ParsePlan(fmt.Sprintf("seed=%d,cache=0.2", seed))
		if err != nil {
			t.Fatal(err)
		}
		s.SetFaults(fault.NewInjector(plan, 0))
	}
	cfg := sc.cfg
	cfg.Sys = s
	pl := New(cfg)
	ports := make([]*Port, len(sc.issuers))
	for w := range ports {
		ports[w] = pl.Attach(s.NewAgent(w%2, fmt.Sprintf("issuer%d", w)))
	}
	surface := func(pt *Port) bursts {
		if loops {
			return perBuffer{pt, cov}
		}
		return pt
	}
	var out burstOutcome
	held := make([][]*Buf, len(sc.issuers))
	done := 0
	for w, ops := range sc.issuers {
		k.Spawn(fmt.Sprintf("issuer%d", w), func(p *sim.Proc) {
			bufs := make([]*Buf, 64)
			for i, op := range ops {
				p.Sleep(op.think)
				m := surface(ports[op.port])
				start := p.Now()
				// Frees draw their buffers from what this issuer holds.
				var frees []*Buf
				if kind := burstKinds[op.kind]; kind == "Free" || kind == "FreeBurst" || kind == "FreeFed" {
					n := len(op.frees)
					if kind == "Free" {
						n = 1
					}
					for _, pick := range op.frees[:n] {
						if len(held[w]) == 0 {
							break
						}
						j := pick % len(held[w])
						frees = append(frees, held[w][j])
						held[w][j] = held[w][len(held[w])-1]
						held[w] = held[w][:len(held[w])-1]
					}
				}
				var got []*Buf
				feed := &scriptFeed{p: p, log: &out.log, proc: w, op: i, sizes: op.sizes, stop: op.stop, frees: frees}
				switch burstKinds[op.kind] {
				case "Alloc":
					if b := m.Alloc(p, op.sizes[0]); b != nil {
						got = []*Buf{b}
					}
				case "AllocBurst":
					got = bufs[:m.AllocBurst(p, op.sizes[0], bufs[:len(op.sizes)])]
				case "AllocFed":
					got = bufs[:m.AllocFed(p, bufs[:len(op.sizes)], feed)]
				case "Free":
					if len(frees) > 0 {
						m.Free(p, frees[0])
					}
				case "FreeBurst":
					m.FreeBurst(p, frees)
				case "FreeFed":
					m.FreeFed(p, feed)
				}
				held[w] = append(held[w], got...)
				out.log = append(out.log, burstEntry{proc: w, op: i, start: start, end: p.Now(), bufs: addrs(got) + addrs(frees)})
			}
			surface(ports[w]).FreeBurst(p, held[w])
			out.log = append(out.log, burstEntry{proc: w, op: len(ops), end: p.Now()})
			done++
		})
	}
	for i, delays := range sc.sleeperDelay {
		a := s.NewAgent(1-i%2, fmt.Sprintf("sleeper%d", i))
		stores := sc.sleeperStore[i]
		k.Spawn(a.Name(), func(p *sim.Proc) {
			for j := 0; done < len(sc.issuers); j = (j + 1) % len(delays) {
				p.Sleep(delays[j])
				if l := stores[j]; l >= 0 {
					pt := ports[l/2]
					addr := pt.lockLine
					if l%2 == 1 {
						addr = pt.entriesBase
					}
					a.Write(p, addr, 8)
				}
				out.log = append(out.log, burstEntry{proc: -1 - i, op: -1, start: p.Now(), end: p.Now()})
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if pl.Outstanding() != 0 {
		t.Fatalf("seed %d loops=%v: %d buffers outstanding after every issuer freed its own", seed, loops, pl.Outstanding())
	}
	if err := pl.CheckConservation(); err != nil {
		t.Fatalf("seed %d loops=%v: %v", seed, loops, err)
	}
	out.objects = pr.log
	out.events, out.resumes, out.now = k.Events(), k.Resumes(), k.Now()
	out.counters = [2]coherence.Counters{s.Counters(0), s.Counters(1)}
	out.link = s.Link().Stats()
	return out
}

// TestBurstWalkMatchesPerBufferLoops is a randomized differential: seeded
// scripts of buffer bursts of every kind, from issuers on several ports of
// one small pool beside sleepers that tie with the charges and store to the
// ports' lock and entry lines, must return the same buffers in the same
// order, complete every operation and feed call at the same instant, in the
// same interleaving, with the same event count, probe ObjectEvent order,
// protocol counters and link traffic, whether each burst is a walk or the
// per-buffer loop it replaced. The scripts cover recycle hits, refills,
// spills and steals mid-burst, exhaustion, both size classes and
// non-recycling pools; a third arm a cache-pressure fault plan, whose
// draws must land in the same events.
func TestBurstWalkMatchesPerBufferLoops(t *testing.T) {
	seeds := int64(150)
	if testing.Short() {
		seeds = 40
	}
	var cov burstCoverage
	central, faults := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		sc := genBurstScript(seed, platform.ICX())
		want := burstWorld(t, sc, seed, true, &cov)
		got := burstWorld(t, sc, seed, false, nil)
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d logged steps, want %d", seed, len(got.log), len(want.log))
		}
		for i := range want.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: step %d is %+v, want %+v", seed, i, got.log[i], want.log[i])
			}
		}
		if len(got.objects) != len(want.objects) {
			t.Fatalf("seed %d: %d ObjectEvents, want %d", seed, len(got.objects), len(want.objects))
		}
		for i := range want.objects {
			if got.objects[i] != want.objects[i] {
				t.Fatalf("seed %d: ObjectEvent %d at %+v, want %+v", seed, i, got.objects[i], want.objects[i])
			}
		}
		if got.events != want.events || got.now != want.now {
			t.Fatalf("seed %d: %d events ending at %v, want %d at %v", seed, got.events, got.now, want.events, want.now)
		}
		if got.counters != want.counters || got.link != want.link {
			t.Fatalf("seed %d: counters %+v link %+v\nwant counters %+v link %+v", seed, got.counters, got.link, want.counters, want.link)
		}
		if got.resumes > want.resumes {
			t.Fatalf("seed %d: the walks resumed coroutines %d times, more than the loops' %d", seed, got.resumes, want.resumes)
		}
		if !sc.cfg.Recycle {
			central++
		}
		if sc.faults {
			faults++
		}
	}
	if central == 0 || faults == 0 || cov.steals == 0 || cov.spills == 0 || cov.exhausted == 0 {
		t.Errorf("scripts left a path unreached: %d non-recycling pools, %d fault plans, %+v", central, faults, cov)
	}
}

// TestBufferBurstsSpin checks that a 32-buffer AllocBurst and FreeBurst
// beside a competing sleeper each cost the issuing process one coroutine
// resume, on the recycling path and on a non-recycling pool's central path:
// every charge after the first runs as a spin step. The per-buffer
// reference pays a resume per charge in the same world, which shows the
// sleeper does compete.
func TestBufferBurstsSpin(t *testing.T) {
	const n = 32
	for _, recycle := range []bool{true, false} {
		for _, loops := range []bool{false, true} {
			k := sim.New()
			s := coherence.NewSystem(k, platform.ICX())
			pl := New(Config{Sys: s, BigCount: 4 * n, BigSize: 2048, Shared: true, Recycle: recycle})
			pt := pl.Attach(s.NewAgent(1, "nic"))
			var m bursts = pt
			if loops {
				m = perBuffer{pt, &burstCoverage{}}
			}
			var sleeperResumes, allocResumes, freeResumes uint64
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
			k.Spawn("issuer", func(p *sim.Proc) {
				bufs := make([]*Buf, n)
				// Warm up: the first burst claims the port's shard and,
				// when recycling, fills its stack.
				m.FreeBurst(p, bufs[:m.AllocBurst(p, 64, bufs)])
				measure := func(burst func()) uint64 {
					r, sr := k.Resumes(), sleeperResumes
					burst()
					return k.Resumes() - r - (sleeperResumes - sr)
				}
				var got int
				allocResumes = measure(func() { got = m.AllocBurst(p, 64, bufs) })
				freeResumes = measure(func() { m.FreeBurst(p, bufs[:got]) })
				if got != n {
					t.Errorf("recycle=%v loops=%v: burst got %d buffers, want %d", recycle, loops, got, n)
				}
				done = true
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				op      string
				resumes uint64
			}{{"AllocBurst", allocResumes}, {"FreeBurst", freeResumes}} {
				switch {
				case !loops && c.resumes != 1:
					t.Errorf("recycle=%v: %s resumed its process %d times, want 1", recycle, c.op, c.resumes)
				case loops && c.resumes < n:
					t.Errorf("recycle=%v: the per-buffer %s resumed its process %d times, want at least %d: the sleeper does not compete",
						recycle, c.op, c.resumes, n)
				}
			}
		}
	}
}

// TestBurstWalkAllocs checks that a warm 32-buffer AllocBurst and FreeBurst
// round trip between two ports allocates nothing, beside a competing
// sleeper, with the recycling stacks spilling and refilling through the
// central pool: walkers come from the port's free list with their step
// bound, spills move buffers without a copy, and the entry lines reuse the
// port's scratch. (A non-recycling pool's shard is a FIFO slice, which
// reallocates as it cycles, so it is not steady-state allocation-free.)
func TestBurstWalkAllocs(t *testing.T) {
	const n = 32
	k := sim.New()
	s := coherence.NewSystem(k, platform.ICX())
	pl := New(Config{Sys: s, BigCount: 4 * n, BigSize: 2048, Shared: true, Recycle: true, RecycleDepth: n / 2})
	host, nic := pl.Attach(s.NewAgent(0, "host")), pl.Attach(s.NewAgent(1, "nic"))
	var allocs float64
	done := false
	k.Spawn("sleeper", func(p *sim.Proc) {
		for !done {
			p.Sleep(sim.Nanosecond)
		}
	})
	k.Spawn("issuer", func(p *sim.Proc) {
		bufs := make([]*Buf, n)
		round := func() {
			host.FreeBurst(p, bufs[:nic.AllocBurst(p, 64, bufs)])
			nic.FreeBurst(p, bufs[:host.AllocBurst(p, 64, bufs)])
		}
		for range 4 {
			round()
		}
		allocs = testing.AllocsPerRun(20, round)
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a warm 32-buffer round trip allocates %v times, want 0", allocs)
	}
}
