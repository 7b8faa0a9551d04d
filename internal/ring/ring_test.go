package ring

import (
	"slices"
	"strings"
	"testing"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/mem"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// env bundles a two-agent simulated system for ring tests.
type env struct {
	sys  *coherence.System
	host *coherence.Agent
	nic  *coherence.Agent
	pool *bufpool.Pool
	hp   *bufpool.Port
}

// consumeUpTo takes up to max descriptors from r and returns them.
func consumeUpTo(p *sim.Proc, r *Inline, a *coherence.Agent, max int) []*bufpool.Buf {
	out := make([]*bufpool.Buf, max)
	return out[:consume(p, r, a, out)]
}

// onProc runs the operation a start method of w began on p, one event per
// charge, as a process calling it would, and returns its count.
func onProc(p *sim.Proc, w *Walk, d sim.Time, ok bool) int {
	if ok {
		p.Spin(d, w.Advance)
	}
	return w.N()
}

// post, consume, regPost, regConsume and reclaim run one ring operation on
// p, each on a fresh Walk.
func post(p *sim.Proc, r *Inline, a *coherence.Agent, bufs []*bufpool.Buf) int {
	w := &Walk{}
	d, ok := w.Post(r, a, bufs)
	return onProc(p, w, d, ok)
}

func consume(p *sim.Proc, r *Inline, a *coherence.Agent, out []*bufpool.Buf) int {
	w := &Walk{}
	d, ok := w.Consume(r, a, out)
	return onProc(p, w, d, ok)
}

func regPost(p *sim.Proc, r *Reg, a *coherence.Agent, bufs []*bufpool.Buf, tail *sim.Time) int {
	w := &Walk{}
	d, ok := w.RegPost(r, a, bufs, tail)
	return onProc(p, w, d, ok)
}

func regConsume(p *sim.Proc, r *Reg, a *coherence.Agent, out []*bufpool.Buf) {
	w := &Walk{}
	d, ok := w.RegConsume(r, a, out)
	onProc(p, w, d, ok)
}

func reclaim(p *sim.Proc, r *Reg, a *coherence.Agent, n int, port *bufpool.Port) {
	w := &Walk{}
	d, ok := w.Reclaim(r, a, n, port)
	onProc(p, w, d, ok)
}

func withEnv(t *testing.T, fn func(p *sim.Proc, e *env)) {
	t.Helper()
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	e := &env{
		sys:  sys,
		host: sys.NewAgent(0, "host"),
		nic:  sys.NewAgent(1, "nic"),
	}
	e.pool = bufpool.New(bufpool.Config{
		Sys: sys, BigCount: 64, BigSize: 4096,
		Shared: true, Recycle: true, SmallBufs: true,
	})
	e.hp = e.pool.Attach(e.host)
	k.Spawn("test", func(p *sim.Proc) { fn(p, e) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func (e *env) bufs(p *sim.Proc, n int) []*bufpool.Buf {
	out := make([]*bufpool.Buf, n)
	if got := e.hp.AllocBurst(p, 64, out); got != n {
		panic("alloc failed")
	}
	for i, b := range out {
		b.Seq = uint64(i + 1)
	}
	return out
}

func TestGroupedPostConsumeRoundtrip(t *testing.T) {
	withEnv(t, func(p *sim.Proc, e *env) {
		r := NewInline(e.sys, Grouped, 16, 0)
		bufs := e.bufs(p, 10)
		if n := post(p, r, e.host, bufs); n != 10 {
			t.Fatalf("posted %d, want 10", n)
		}
		if r.Pending() != 10 {
			t.Errorf("pending = %d, want 10", r.Pending())
		}
		p.Sleep(200 * sim.Nanosecond) // let store-buffered publishes become visible
		got := consumeUpTo(p, r, e.nic, 32)
		if len(got) != 10 {
			t.Fatalf("consumed %d, want 10", len(got))
		}
		for i, b := range got {
			if b.Seq != uint64(i+1) {
				t.Fatalf("out of order: slot %d has seq %d", i, b.Seq)
			}
		}
		if r.Pending() != 0 {
			t.Errorf("pending after consume = %d", r.Pending())
		}
	})
}

func TestAllLayoutsPreserveFIFO(t *testing.T) {
	for _, layout := range []Layout{Grouped, Packed, Padded} {
		layout := layout
		t.Run(layout.String(), func(t *testing.T) {
			withEnv(t, func(p *sim.Proc, e *env) {
				r := NewInline(e.sys, layout, 32, 0)
				var all []*bufpool.Buf
				seq := uint64(1)
				for round := 0; round < 5; round++ {
					bufs := e.bufs(p, 7)
					for _, b := range bufs {
						b.Seq = seq
						seq++
					}
					post(p, r, e.host, bufs)
					got := consumeUpTo(p, r, e.nic, 16)
					all = append(all, got...)
				}
				// Drain any remainder.
				for {
					got := consumeUpTo(p, r, e.nic, 16)
					if len(got) == 0 {
						break
					}
					all = append(all, got...)
				}
				if len(all) != 35 {
					t.Fatalf("got %d descriptors, want 35", len(all))
				}
				for i, b := range all {
					if b.Seq != uint64(i+1) {
						t.Fatalf("layout %v: position %d has seq %d", layout, i, b.Seq)
					}
				}
			})
		})
	}
}

func TestConsumeRespectsMax(t *testing.T) {
	withEnv(t, func(p *sim.Proc, e *env) {
		r := NewInline(e.sys, Grouped, 16, 0)
		post(p, r, e.host, e.bufs(p, 8))
		p.Sleep(200 * sim.Nanosecond)
		if got := consumeUpTo(p, r, e.nic, 1); len(got) != 1 {
			t.Fatalf("max=1 returned %d", len(got))
		}
		if got := consumeUpTo(p, r, e.nic, 3); len(got) != 3 {
			t.Fatalf("max=3 returned %d", len(got))
		}
		if got := consumeUpTo(p, r, e.nic, 100); len(got) != 4 {
			t.Fatalf("drain returned %d, want 4", len(got))
		}
	})
}

func TestRingFullBackpressure(t *testing.T) {
	withEnv(t, func(p *sim.Proc, e *env) {
		r := NewInline(e.sys, Padded, 8, 0) // 8 lines => 7 usable
		bufs := e.bufs(p, 16)
		n := post(p, r, e.host, bufs)
		if n != 7 {
			t.Fatalf("posted %d into a 7-usable ring", n)
		}
		// Consumer drains; producer can then reclaim and post the rest.
		p.Sleep(200 * sim.Nanosecond)
		consumeUpTo(p, r, e.nic, 16)
		p.Sleep(200 * sim.Nanosecond)
		n2 := post(p, r, e.host, bufs[n:])
		if n+n2 != 14 {
			t.Fatalf("after drain posted %d total, want 14", n+n2)
		}
	})
}

func TestEmptyConsumeReturnsNothing(t *testing.T) {
	withEnv(t, func(p *sim.Proc, e *env) {
		for _, layout := range []Layout{Grouped, Packed, Padded} {
			r := NewInline(e.sys, layout, 16, 0)
			if got := consumeUpTo(p, r, e.nic, 8); len(got) != 0 {
				t.Errorf("%v: empty ring returned %d descriptors", layout, len(got))
			}
		}
	})
}

func TestGroupedBatchedCheaperPerDescriptorThanPadded(t *testing.T) {
	// The core Fig 14b claim: with batching, the grouped layout moves 4
	// descriptors per line transfer while padded moves 1.
	withEnv(t, func(p *sim.Proc, e *env) {
		measure := func(layout Layout) sim.Time {
			r := NewInline(e.sys, layout, 64, 0)
			start := p.Now()
			for round := 0; round < 8; round++ {
				bufs := e.bufs(p, 16)
				post(p, r, e.host, bufs)
				var got []*bufpool.Buf
				for len(got) < 16 {
					g := consumeUpTo(p, r, e.nic, 16-len(got))
					if len(g) == 0 {
						p.Sleep(10 * sim.Nanosecond)
						continue
					}
					got = append(got, g...)
				}
				e.hp.FreeBurst(p, got)
			}
			return p.Now() - start
		}
		grouped := measure(Grouped)
		padded := measure(Padded)
		if float64(padded) < 1.5*float64(grouped) {
			t.Errorf("padded (%v) should cost >1.5x grouped (%v) when batched", padded, grouped)
		}
	})
}

func TestPackedThrashesUnderSingletonContention(t *testing.T) {
	// Singleton posts with an eagerly polling consumer: packed shares a
	// line among 4 descriptors, so producer and consumer ping-pong it.
	withEnv(t, func(p *sim.Proc, e *env) {
		perDesc := func(layout Layout) sim.Time {
			r := NewInline(e.sys, layout, 64, 0)
			start := p.Now()
			for i := 0; i < 32; i++ {
				bufs := e.bufs(p, 1)
				post(p, r, e.host, bufs)
				var got []*bufpool.Buf
				for tries := 0; len(got) == 0 && tries < 100; tries++ {
					got = consumeUpTo(p, r, e.nic, 1)
					if len(got) == 0 {
						p.Sleep(10 * sim.Nanosecond)
					}
				}
				if len(got) != 1 {
					t.Fatal("lost descriptor")
				}
				e.hp.FreeBurst(p, got)
			}
			return (p.Now() - start) / 32
		}
		packed := perDesc(Packed)
		padded := perDesc(Padded)
		if packed <= padded {
			t.Errorf("packed singleton per-descriptor (%v) should exceed padded (%v)", packed, padded)
		}
	})
}

func TestRegRingIndexMath(t *testing.T) {
	withEnv(t, func(p *sim.Proc, e *env) {
		r := NewReg(e.sys, 64, 0, 1)
		if r.Size() != 64 {
			t.Errorf("size = %d", r.Size())
		}
		if r.Space() != 63 {
			t.Errorf("space = %d, want 63", r.Space())
		}
		if mem.Home(r.TailReg()) != 1 || mem.Home(r.HeadReg()) != 1 {
			t.Error("registers should be homed on the device socket")
		}
		if mem.Home(r.DescAddr(0)) != 0 {
			t.Error("descriptor array should be homed on the host socket")
		}
		// 4 descriptors per line.
		if mem.LineOf(r.DescAddr(0)) != mem.LineOf(r.DescAddr(3)) {
			t.Error("descriptors 0-3 should share a line")
		}
		if mem.LineOf(r.DescAddr(3)) == mem.LineOf(r.DescAddr(4)) {
			t.Error("descriptor 4 should start a new line")
		}
		// Wraparound.
		if r.DescAddr(64) != r.DescAddr(0) {
			t.Error("index wraparound broken")
		}
	})
}

func TestRegRingLinesFor(t *testing.T) {
	withEnv(t, func(p *sim.Proc, e *env) {
		r := NewReg(e.sys, 64, 0, 1)
		line := func(i int) mem.Addr { return mem.LineOf(r.DescAddr(4 * i)) }
		for _, c := range []struct {
			from, count int
			want        []mem.Addr
		}{
			{2, 6, []mem.Addr{line(0), line(1)}},             // descs 2..7
			{62, 4, []mem.Addr{line(15), line(0)}},           // wraps
			{4, 4, []mem.Addr{line(1)}},                      // one whole line
			{5, 1, []mem.Addr{line(1)}},                      // one descriptor
			{0, 0, nil},                                      // nothing
			{60, 12, []mem.Addr{line(15), line(0), line(1)}}, // wraps mid-batch
		} {
			if got := r.LinesFor(nil, c.from, c.count); !slices.Equal(got, c.want) {
				t.Errorf("LinesFor(%d,%d) = %#x, want %#x", c.from, c.count, got, c.want)
			}
		}
	})
}

func TestRegRingSlotsAndDone(t *testing.T) {
	withEnv(t, func(p *sim.Proc, e *env) {
		r := NewReg(e.sys, 16, 0, 1)
		b := e.bufs(p, 1)[0]
		r.Put(3, b)
		if r.Done(3) {
			t.Error("fresh slot marked done")
		}
		r.SetDone(3)
		if !r.Done(3) {
			t.Error("SetDone did not stick")
		}
		if got := r.Take(3); got != b {
			t.Error("Take returned wrong buffer")
		}
		if r.Get(3) != nil {
			t.Error("Take did not clear slot")
		}
		r.ClearDone(3)
		if r.Done(3) {
			t.Error("ClearDone did not stick")
		}
		e.hp.Free(p, b)
	})
}

func TestLayoutStrings(t *testing.T) {
	if Grouped.String() != "grouped" || Packed.String() != "packed" || Padded.String() != "padded" {
		t.Error("layout strings wrong")
	}
	if Layout(99).String() != "unknown" {
		t.Error("unknown layout string wrong")
	}
}

func TestInlineAccessors(t *testing.T) {
	withEnv(t, func(p *sim.Proc, e *env) {
		r := NewInline(e.sys, Grouped, 16, 0)
		if r.Layout() != Grouped {
			t.Error("Layout accessor wrong")
		}
		if r.Cap() != 64 {
			t.Errorf("Cap = %d, want 64", r.Cap())
		}
		if r.SpaceLines() != 15 {
			t.Errorf("SpaceLines = %d, want 15", r.SpaceLines())
		}
		if r.TakeReclaimed() != 0 {
			t.Error("fresh ring has reclaimed lines")
		}
		if !strings.Contains(r.DebugString(), "prod 0 cons 0") {
			t.Errorf("DebugString: %s", r.DebugString())
		}
		// Reclaim accounting after a full produce/consume cycle.
		bufs := e.bufs(p, 8)
		post(p, r, e.host, bufs)
		p.Sleep(300 * sim.Nanosecond)
		got := consumeUpTo(p, r, e.nic, 8)
		if len(got) != 8 {
			t.Fatalf("consumed %d", len(got))
		}
		p.Sleep(300 * sim.Nanosecond)
		// Exhaust credits so replenish scans the cleared lines.
		for r.SpaceLines() > 0 {
			n := post(p, r, e.host, e.bufs(p, 4))
			if n == 0 {
				break
			}
		}
		if r.TakeReclaimed() == 0 {
			t.Error("no lines reclaimed after full cycle")
		}
		e.hp.FreeBurst(p, got)
	})
}

func TestNewInlineValidation(t *testing.T) {
	withEnv(t, func(p *sim.Proc, e *env) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for tiny ring")
			}
		}()
		NewInline(e.sys, Grouped, 2, 0)
	})
}

func TestNewRegValidation(t *testing.T) {
	withEnv(t, func(p *sim.Proc, e *env) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for tiny reg ring")
			}
		}()
		NewReg(e.sys, 2, 0, 1)
	})
}

// A Packed slot posted but not yet visible leaves the consumer's Consume
// empty until its visibility: from that instant, with no further publish,
// a Consume takes it.
func TestPackedConsumeHorizon(t *testing.T) {
	withEnv(t, func(p *sim.Proc, e *env) {
		r := NewInline(e.sys, Packed, 8, 0)
		out := make([]*bufpool.Buf, 1)
		if n := consume(p, r, e.nic, out); n != 0 {
			t.Fatalf("empty ring: Consume took %d", n)
		}
		post(p, r, e.host, e.bufs(p, 1))
		vis := r.lineAt(r.cons).slotVisible[0]
		if vis <= p.Now() {
			t.Fatalf("posted slot visible at %v, not after its post ended at %v", vis, p.Now())
		}
		if n := consume(p, r, e.nic, out); n != 0 {
			t.Fatalf("Consume took %d at %v, before the slot is visible at %v", n, p.Now(), vis)
		}
		p.Sleep(vis - p.Now())
		if n := consume(p, r, e.nic, out); n != 1 || out[0].Seq != 1 {
			t.Fatalf("Consume took %d at the slot's visibility %v, want its one descriptor", n, vis)
		}
	})
}
