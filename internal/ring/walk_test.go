package ring

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/fault"
	"ccnic/internal/mem"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// The reference the walks must match event for event: the ring operations
// as process bodies, one Sleep per charge (each coherent access on the
// process), as they were written before the walks.

func bodyPost(p *sim.Proc, r *Inline, a *coherence.Agent, bufs []*bufpool.Buf) int {
	if len(bufs) == 0 {
		return 0
	}
	bodyReplenish(p, r, a, len(bufs))
	posted := 0
	if r.layout == Packed {
		for posted < len(bufs) {
			ln := r.lineAt(r.prod)
			if r.prodSlot == 0 {
				if r.credits == 0 {
					break
				}
				r.credits--
			}
			i := r.prodSlot
			vis := a.WriteAsync(p, r.lineAddr(r.prod)+mem.Addr(i*DescSize), DescSize)
			ln.bufs[i] = bufs[posted]
			ln.count = i + 1
			ln.slotVisible[i] = vis
			ln.slotReady[i] = true
			posted++
			r.prodSlot++
			if r.prodSlot == SlotsPerLine {
				r.prodSlot = 0
				r.prod++
			}
		}
		r.notify()
		return posted
	}
	per := r.layout.DescsPerLine()
	for posted < len(bufs) && r.credits > 0 {
		ln := r.lineAt(r.prod)
		n := min(len(bufs)-posted, per)
		vis := a.WriteAsync(p, r.lineAddr(r.prod), mem.LineSize)
		for i := 0; i < n; i++ {
			ln.bufs[i] = bufs[posted+i]
		}
		ln.count = n
		ln.visibleAt = vis
		ln.ready = true
		r.prod++
		r.credits--
		posted += n
	}
	r.notify()
	return posted
}

func bodyReplenish(p *sim.Proc, r *Inline, a *coherence.Agent, want int) {
	needLines := (want + r.layout.DescsPerLine() - 1) / r.layout.DescsPerLine()
	if r.credits >= needLines && r.credits >= r.nLines/4 {
		return
	}
	scan := r.scan.Take()
	limit := r.cons
	now := p.Now()
	for r.reclaim < limit && len(scan) < r.nLines {
		ln := r.lineAt(r.reclaim)
		if !r.cleared(ln) || now < ln.clearVisibleAt {
			break
		}
		scan = append(scan, r.lineAddr(r.reclaim))
		r.reclaim++
		r.credits++
	}
	if len(scan) > 0 {
		a.GatherRead(p, scan)
		r.reclaimedSinceTake += len(scan)
		r.notify()
	}
	r.scan.Put(scan)
}

func bodyConsume(p *sim.Proc, r *Inline, a *coherence.Agent, out []*bufpool.Buf) int {
	n := bodyConsumeLines(p, r, a, out)
	r.notify()
	return n
}

func bodyConsumeLines(p *sim.Proc, r *Inline, a *coherence.Agent, out []*bufpool.Buf) int {
	n := 0
	for n < len(out) {
		ln := r.lineAt(r.cons)
		addr := r.lineAddr(r.cons)
		if r.layout == Packed {
			took := false
			for ln.taken < SlotsPerLine && n < len(out) {
				i := ln.taken
				if !ln.slotReadyAt(i, p.Now()) {
					break
				}
				a.Poll(p, addr+mem.Addr(i*DescSize), DescSize)
				if pr := r.sys.Probe(); pr != nil && (!ln.slotReady[i] || p.Now() < ln.slotVisible[i]) {
					pr.Fail(fmt.Errorf("%s: consuming slot %d of line %d with a clear or not-yet-visible ready flag", r.CheckDesc(), i, r.cons))
				}
				out[n] = ln.bufs[i]
				n++
				vis := a.WriteAsync(p, addr+mem.Addr(i*DescSize), DescSize)
				ln.clearVisibleAt = vis
				ln.bufs[i] = nil
				ln.slotReady[i] = false
				ln.taken++
				took = true
			}
			if ln.taken == SlotsPerLine {
				ln.count, ln.taken = 0, 0
				r.cons++
				continue
			}
			if !took {
				a.Poll(p, addr+mem.Addr(ln.taken*DescSize), DescSize)
			}
			return n
		}
		if ln.ready {
			a.Read(p, addr, DescSize)
		} else {
			a.Poll(p, addr, DescSize)
		}
		if !ln.readyAt(p.Now()) {
			return n
		}
		for ln.taken < ln.count && n < len(out) {
			out[n] = ln.bufs[ln.taken]
			n++
			ln.bufs[ln.taken] = nil
			ln.taken++
		}
		if ln.taken < ln.count {
			return n
		}
		vis := a.WriteAsync(p, addr, mem.LineSize)
		ln.clearVisibleAt = vis
		ln.count, ln.taken = 0, 0
		ln.ready = false
		r.cons++
		a.SoftPrefetch(r.lineAddr(r.cons))
	}
	return n
}

func bodyRegAccess(p *sim.Proc, r *Reg, a *coherence.Agent, side *sim.Scratch[mem.Addr], from, count int, write bool) {
	lines := r.LinesFor(side.Take(), from, count)
	if write {
		a.ScatterWrite(p, lines)
	} else {
		a.GatherRead(p, lines)
	}
	side.Put(lines)
}

// bodyRegPost is the register ring's Post, and with tail set the register-signaled
// producer's tail publish after it.
func bodyRegPost(p *sim.Proc, r *Reg, a *coherence.Agent, bufs []*bufpool.Buf, tail *sim.Time) int {
	n := min(len(bufs), r.Space())
	if n <= 0 {
		return 0
	}
	for i, b := range bufs[:n] {
		r.Put(r.TailIdx+i, b)
	}
	bodyRegAccess(p, r, a, &r.postLines, r.TailIdx, n, true)
	r.TailIdx += n
	if tail != nil {
		*tail = a.WriteAsync(p, r.TailReg(), 8)
	}
	return n
}

func bodyRegConsume(p *sim.Proc, r *Reg, a *coherence.Agent, out []*bufpool.Buf) {
	bodyRegAccess(p, r, a, &r.consLines, r.HeadIdx, len(out), false)
	for i := range out {
		out[i] = r.Take(r.HeadIdx)
		r.ClearDone(r.HeadIdx)
		r.HeadIdx++
	}
}

func bodyReclaim(p *sim.Proc, r *Reg, a *coherence.Agent, n int, port *bufpool.Port) {
	bodyRegAccess(p, r, a, &r.consLines, r.HeadIdx, n, false)
	r.reclaim = reclaimFeed{r: r, left: n}
	port.FreeFed(p, &r.reclaim)
}

// walkProbe records every object event with its instant and event count,
// and counts line events.
type walkProbe struct {
	k       *sim.Kernel
	objects []string
	lines   int
}

func (pr *walkProbe) LineEvent(mem.Addr) { pr.lines++ }
func (pr *walkProbe) Fail(err error)     { panic(err) }
func (pr *walkProbe) ObjectEvent(o coherence.Checkable) {
	pr.objects = append(pr.objects, fmt.Sprintf("%s@%d/%d", o.CheckDesc(), pr.k.Now(), pr.k.Events()))
}

// ringWorld is one scripted run: a system, its probe and its log.
type ringWorld struct {
	k    *sim.Kernel
	sys  *coherence.System
	pr   *walkProbe
	pool *bufpool.Pool
	log  []string
}

func newRingWorld(t *testing.T, seed int64, faults bool) *ringWorld {
	t.Helper()
	k := sim.New()
	w := &ringWorld{k: k, sys: coherence.NewSystem(k, platform.ICX()), pr: &walkProbe{k: k}}
	w.sys.SetProbe(w.pr)
	if faults {
		plan, err := fault.ParsePlan(fmt.Sprintf("seed=%d,cache=0.3", seed))
		if err != nil {
			t.Fatal(err)
		}
		w.sys.SetFaults(fault.NewInjector(plan, 0))
	}
	w.pool = bufpool.New(bufpool.Config{Sys: w.sys, BigCount: 512, BigSize: 2048, Shared: true})
	return w
}

func (w *ringWorld) note(p *sim.Proc, format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%d/%d %s: ", p.Now(), w.k.Events(), p.Name())+fmt.Sprintf(format, args...))
}

// outcome renders everything the run exposes.
func (w *ringWorld) outcome(state string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "events %d clock %d lines %d\n", w.k.Events(), w.k.Now(), w.pr.lines)
	for s := 0; s < 2; s++ {
		fmt.Fprintf(&b, "socket %d %+v\n", s, w.sys.Counters(s))
	}
	fmt.Fprintf(&b, "link %+v\nstate %s\n", w.sys.Link().Stats(), state)
	b.WriteString(strings.Join(w.log, "\n"))
	b.WriteString("\n")
	b.WriteString(strings.Join(w.pr.objects, "\n"))
	return b.String()
}

// spinConsumer is the walk world's Inline consumer: a bodiless process
// running ops Consumes, each after a think, as ring.Walks from its step —
// the way a bodiless NIC core runs them.
type spinConsumer struct {
	w      *ringWorld
	r      *Inline
	a      *coherence.Agent
	rng    *rand.Rand
	p      *sim.Proc
	walk   Walk
	out    []*bufpool.Buf
	free   *[]*bufpool.Buf
	ops, n int
	inOp   bool
}

func (c *spinConsumer) step() (sim.Time, bool) {
	if c.inOp {
		if d, more := c.walk.Advance(); more {
			return d, true
		}
		c.done()
	} else if c.out != nil {
		d, ok := c.walk.Consume(c.r, c.a, c.out)
		if ok {
			c.inOp = true
			return d, true
		}
		c.done()
	}
	if c.n == c.ops {
		return 0, false
	}
	c.n++
	think := sim.Time(c.rng.Intn(300)) * sim.Nanosecond
	c.out = make([]*bufpool.Buf, 1+c.rng.Intn(9))
	return think, true
}

func (c *spinConsumer) done() {
	n := c.walk.N()
	c.w.note(c.p, "consume %d of %d", n, len(c.out))
	*c.free = append(*c.free, c.out[:n]...)
	c.inOp = false
}

// inlineRun runs a scripted Inline ring: two producers posting bursts and
// one consumer, with seeded thinks; walks selects the step-form operations
// (the consumer as a bodiless process), else the reference bodies. Two
// producers, as a fill ring fed by a queue's TxBurst and RxBurst on two
// processes, can drive the credits below zero, a state the walks must
// treat exactly as the bodies do.
func inlineRun(t *testing.T, layout Layout, seed int64, faults, walks bool) string {
	w := newRingWorld(t, seed, faults)
	host, nic := w.sys.NewAgent(0, "host"), w.sys.NewAgent(1, "nic")
	r := NewInline(w.sys, layout, 8, 0)
	var free []*bufpool.Buf
	setup := make([]*bufpool.Buf, 160)
	port := w.pool.Attach(host)
	w.k.Spawn("setup", func(p *sim.Proc) {
		free = append(free, setup[:port.AllocBurst(p, 64, setup)]...)
		for i := 0; i < 2; i++ {
			rng := rand.New(rand.NewSource(seed*7 + int64(i)))
			w.k.Spawn(fmt.Sprintf("producer%d", i), func(p *sim.Proc) {
				for op := 0; op < 40; op++ {
					p.Sleep(sim.Time(rng.Intn(200)) * sim.Nanosecond)
					n := min(1+rng.Intn(10), len(free))
					bufs := append([]*bufpool.Buf(nil), free[len(free)-n:]...)
					free = free[:len(free)-n]
					var posted int
					if walks {
						posted = post(p, r, host, bufs)
					} else {
						posted = bodyPost(p, r, host, bufs)
					}
					free = append(free, bufs[posted:]...)
					w.note(p, "post %d of %d reclaimed %d", posted, n, r.TakeReclaimed())
				}
			})
		}
		rng := rand.New(rand.NewSource(seed*7 + 5))
		if walks {
			c := &spinConsumer{w: w, r: r, a: nic, rng: rng, free: &free, ops: 60}
			c.p = w.k.SpawnSpin("consumer", c.step)
			return
		}
		w.k.Spawn("consumer", func(p *sim.Proc) {
			for op := 0; op < 60; op++ {
				p.Sleep(sim.Time(rng.Intn(300)) * sim.Nanosecond)
				out := make([]*bufpool.Buf, 1+rng.Intn(9))
				n := bodyConsume(p, r, nic, out)
				w.note(p, "consume %d of %d", n, len(out))
				free = append(free, out[:n]...)
			}
		})
	})
	if err := w.k.Run(); err != nil {
		t.Fatal(err)
	}
	prod, cons, reclaim, credits := r.Cursors()
	return w.outcome(fmt.Sprintf("cursors %d %d %d %d pending %d | %s", prod, cons, reclaim, credits, r.Pending(), r.DebugString()))
}

// regRun runs a scripted Reg ring: a host producer that allocates, posts
// (every other burst publishing its tail register, as the register
// drivers do) and, without nicMgmt, reclaims completed descriptors; and a
// NIC consumer that, with nicMgmt, consumes ready descriptors and frees
// their buffers, else flags them done.
func regRun(t *testing.T, nicMgmt bool, seed int64, faults, walks bool) string {
	w := newRingWorld(t, seed, faults)
	host, nic := w.sys.NewAgent(0, "host"), w.sys.NewAgent(1, "nic")
	hp, np := w.pool.Attach(host), w.pool.Attach(nic)
	r := NewReg(w.sys, 32, 0, 1)
	var tail sim.Time
	prodRng := rand.New(rand.NewSource(seed*11 + 1))
	w.k.Spawn("producer", func(p *sim.Proc) {
		bufs := make([]*bufpool.Buf, 12)
		for op := 0; op < 50; op++ {
			p.Sleep(sim.Time(prodRng.Intn(250)) * sim.Nanosecond)
			if !nicMgmt {
				done := 0
				for r.HeadIdx+done < r.TailIdx && r.Done(r.HeadIdx+done) {
					done++
				}
				if done > 0 {
					if walks {
						reclaim(p, r, host, done, hp)
					} else {
						bodyReclaim(p, r, host, done, hp)
					}
					w.note(p, "reclaim %d", done)
				}
			}
			got := hp.AllocBurst(p, 64, bufs[:1+prodRng.Intn(12)])
			var gate *sim.Time
			if op%2 == 1 {
				gate = &tail
			}
			var n int
			switch {
			case !walks:
				n = bodyRegPost(p, r, host, bufs[:got], gate)
			default:
				n = regPost(p, r, host, bufs[:got], gate)
			}
			hp.FreeBurst(p, bufs[n:got])
			w.note(p, "post %d of %d tail %d", n, got, tail)
		}
	})
	consRng := rand.New(rand.NewSource(seed*11 + 2))
	w.k.Spawn("consumer", func(p *sim.Proc) {
		out := make([]*bufpool.Buf, 16)
		seen := 0
		for op := 0; op < 70; op++ {
			p.Sleep(sim.Time(consRng.Intn(300)) * sim.Nanosecond)
			n := min(r.TailIdx-r.HeadIdx, 1+consRng.Intn(16))
			if nicMgmt {
				if n == 0 {
					continue
				}
				if walks {
					regConsume(p, r, nic, out[:n])
				} else {
					bodyRegConsume(p, r, nic, out[:n])
				}
				np.FreeBurst(p, out[:n])
				w.note(p, "consume %d", n)
				continue
			}
			n = min(r.TailIdx-seen, n)
			for i := 0; i < n; i++ {
				r.SetDone(seen + i)
			}
			seen += n
			w.note(p, "done %d", n)
		}
	})
	if err := w.k.Run(); err != nil {
		t.Fatal(err)
	}
	return w.outcome(fmt.Sprintf("tail %d head %d space %d gate %d outstanding %d", r.TailIdx, r.HeadIdx, r.Space(), tail, w.pool.Outstanding()))
}

// TestRingWalkMatchesBody checks the ring walks against the reference
// bodies event for event: every layout of the Inline ring (the consumer
// run from a bodiless process's step, as a NIC core runs it) and the Reg
// ring with and without NIC buffer management, with and without a
// cache-pressure fault plan armed. The event count, the clock, the
// coherence counters, the link's statistics, the ring's state, every
// operation's result with its instant and event count, and every probe
// object event must be equal.
func TestRingWalkMatchesBody(t *testing.T) {
	diff := func(t *testing.T, want, got string) {
		t.Helper()
		if want == got {
			return
		}
		wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
		for i := range min(len(wl), len(gl)) {
			if wl[i] != gl[i] {
				t.Fatalf("line %d differs:\nbody %s\nwalk %s", i, wl[i], gl[i])
			}
		}
		t.Fatalf("body has %d lines, walk %d", len(wl), len(gl))
	}
	for _, faults := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			for _, layout := range []Layout{Grouped, Packed, Padded} {
				t.Run(fmt.Sprintf("inline/%s/faults=%v/seed%d", layout, faults, seed), func(t *testing.T) {
					diff(t, inlineRun(t, layout, seed, faults, false), inlineRun(t, layout, seed, faults, true))
				})
			}
			for _, nicMgmt := range []bool{false, true} {
				t.Run(fmt.Sprintf("reg/nicmgmt=%v/faults=%v/seed%d", nicMgmt, faults, seed), func(t *testing.T) {
					diff(t, regRun(t, nicMgmt, seed, faults, false), regRun(t, nicMgmt, seed, faults, true))
				})
			}
		}
	}
}
