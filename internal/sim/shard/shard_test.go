package shard

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ccnic/internal/sim"
)

// ringModel builds n shards in a ring. Each shard runs a local ticker (pure
// intra-shard events) and relays a token to its successor with the given
// link latency, recording every delivery in a per-shard trace. Returns the
// engine and the per-shard traces.
func ringModel(n, workers int, lat sim.Time) (*Engine, []*[]string) {
	e := NewEngine(workers)
	traces := make([]*[]string, n)
	shards := make([]*Shard, n)
	for i := 0; i < n; i++ {
		t := &[]string{}
		traces[i] = t
		shards[i] = e.NewShard(fmt.Sprintf("s%d", i), sim.New())
	}
	links := make([]*Link, n)
	for i := 0; i < n; i++ {
		dst := (i + 1) % n
		tr := traces[dst]
		out := links // captured; filled below
		i := i
		links[i] = e.Connect(shards[i], shards[dst], lat, 0, func(d *Delivery) (sim.Time, bool) {
			hop := d.Payload.(int)
			if d.Step == 0 {
				*tr = append(*tr, fmt.Sprintf("%d@%v hop=%d", dst, d.Proc.Now(), hop))
				// Local work before relaying, then forward on this
				// shard's own out-link.
				return 3 * sim.Nanosecond, hop < 40
			}
			out[(i+1)%n].Send(d.Proc, lat, hop+1)
			return 0, false
		})
	}
	// Local tickers: intra-shard load at incommensurate periods.
	for i, s := range shards {
		tr := traces[i]
		id := i
		period := sim.Time(7+3*i) * sim.Nanosecond
		s.Kernel().Spawn("ticker", func(p *sim.Proc) {
			for j := 0; j < 50; j++ {
				p.Sleep(period)
				*tr = append(*tr, fmt.Sprintf("%d@%v tick", id, p.Now()))
			}
		})
	}
	// Seed the token from shard 0.
	shards[0].Kernel().Spawn("seed", func(p *sim.Proc) {
		p.Sleep(5 * sim.Nanosecond)
		links[0].Send(p, lat, 1)
	})
	return e, traces
}

func flatten(traces []*[]string) string {
	var b strings.Builder
	for i, t := range traces {
		fmt.Fprintf(&b, "-- shard %d --\n", i)
		for _, line := range *t {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func runRing(t *testing.T, n, workers int) string {
	t.Helper()
	e, traces := ringModel(n, workers, 20*sim.Nanosecond)
	if err := e.Run(10 * sim.Microsecond); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return flatten(traces)
}

// none is a handler that does nothing with its message.
func none(*Delivery) (sim.Time, bool) { return 0, false }

// TestWorkerCountInvariance is the engine's core guarantee: the merged event
// history is bit-identical for every worker budget, twice each.
func TestWorkerCountInvariance(t *testing.T) {
	ref := runRing(t, 4, 1)
	if !strings.Contains(ref, "hop=40") {
		t.Fatalf("token did not complete 40 hops:\n%s", ref)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for rep := 0; rep < 2; rep++ {
			if got := runRing(t, 4, workers); got != ref {
				t.Fatalf("trace diverged at workers=%d rep=%d", workers, rep)
			}
		}
	}
}

// TestMatchesSingleKernel checks delivery timing against the analytically
// expected schedule: each hop is link latency plus 3ns of local work.
func TestMatchesSingleKernel(t *testing.T) {
	e, traces := ringModel(2, 1, 20*sim.Nanosecond)
	if err := e.Run(10 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	// Token seeded at 5ns, first delivery at 25ns, then every 23ns.
	want := 25 * sim.Nanosecond
	hop := 1
	for i := 0; hop <= 40; i = 1 - i {
		var found string
		for _, line := range *traces[(hop)%2] {
			if strings.Contains(line, fmt.Sprintf("hop=%d", hop)) {
				found = line
				break
			}
		}
		wantLine := fmt.Sprintf("%d@%v hop=%d", hop%2, want, hop)
		if found != wantLine {
			t.Fatalf("hop %d: got %q, want %q", hop, found, wantLine)
		}
		want += 23 * sim.Nanosecond
		hop++
	}
}

// TestQuiescence: with no work at all, Run returns immediately; with finite
// work, Run returns once everything drains even when until is far away.
func TestQuiescence(t *testing.T) {
	e := NewEngine(2)
	a := e.NewShard("a", sim.New())
	b := e.NewShard("b", sim.New())
	var got []sim.Time
	l := e.Connect(a, b, sim.Microsecond, 0, func(d *Delivery) (sim.Time, bool) {
		got = append(got, d.Proc.Now())
		return 0, false
	})
	if err := e.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	a.Kernel().Spawn("one", func(p *sim.Proc) {
		p.Sleep(3 * sim.Microsecond)
		l.Send(p, sim.Microsecond, nil)
	})
	if err := e.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 4*sim.Microsecond {
		t.Fatalf("deliveries = %v, want [4µs]", got)
	}
}

// TestRepeatedRunContinues: messages beyond until stay queued and deliver on
// the next Run call.
func TestRepeatedRunContinues(t *testing.T) {
	e := NewEngine(1)
	a := e.NewShard("a", sim.New())
	b := e.NewShard("b", sim.New())
	var got []sim.Time
	l := e.Connect(a, b, sim.Microsecond, 0, func(d *Delivery) (sim.Time, bool) {
		got = append(got, d.Proc.Now())
		return 0, false
	})
	a.Kernel().Spawn("late", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		l.Send(p, 2*sim.Microsecond, nil)
	})
	if err := e.Run(6 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("message delivered before its time: %v", got)
	}
	if err := e.Run(10 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 7*sim.Microsecond {
		t.Fatalf("deliveries = %v, want [7µs]", got)
	}
}

// TestLookaheadViolation: sends below the declared minimum latency and sends
// from a foreign shard both panic in the model, which the engine surfaces as
// a run error naming the link.
func TestLookaheadViolation(t *testing.T) {
	expectErr := func(name, want string, spawnOnSrc bool, fn func(l *Link, p *sim.Proc)) {
		t.Helper()
		e := NewEngine(1)
		a := e.NewShard("a", sim.New())
		b := e.NewShard("b", sim.New())
		l := e.Connect(a, b, sim.Microsecond, 0, none)
		k := a.Kernel()
		if !spawnOnSrc {
			k = b.Kernel()
		}
		k.Spawn(name, func(p *sim.Proc) { fn(l, p) })
		err := e.Run(sim.Second)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: err = %v, want %q", name, err, want)
		}
	}
	expectErr("below-lookahead", "below the declared minimum latency", true,
		func(l *Link, p *sim.Proc) { l.Send(p, sim.Nanosecond, nil) })
	expectErr("foreign", "another shard", false,
		func(l *Link, p *sim.Proc) { l.Send(p, 2*sim.Microsecond, nil) })
}

// TestFIFOOverflow: a link's bounded capacity is enforced.
func TestFIFOOverflow(t *testing.T) {
	e := NewEngine(1)
	a := e.NewShard("a", sim.New())
	b := e.NewShard("b", sim.New())
	l := e.Connect(a, b, sim.Microsecond, 4, none)
	a.Kernel().Spawn("flood", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			l.Send(p, sim.Microsecond, i)
		}
	})
	err := e.Run(sim.Second)
	if err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("err = %v, want FIFO overflow", err)
	}
}

// TestZeroLookaheadRejected: links must declare strictly positive latency.
func TestZeroLookaheadRejected(t *testing.T) {
	e := NewEngine(1)
	a := e.NewShard("a", sim.New())
	b := e.NewShard("b", sim.New())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero lookahead")
		}
	}()
	e.Connect(a, b, 0, 0, none)
}

// TestTransitiveWakeup reproduces the case one-hop floors get wrong: a quiet
// middle shard whose only activity is relaying a neighbor's message must not
// let its downstream neighbor run ahead of the relayed delivery.
func TestTransitiveWakeup(t *testing.T) {
	e := NewEngine(2)
	a := e.NewShard("a", sim.New())
	mid := e.NewShard("mid", sim.New())
	c := e.NewShard("c", sim.New())

	var order []string
	lMC := e.Connect(mid, c, sim.Nanosecond, 0, func(d *Delivery) (sim.Time, bool) {
		order = append(order, fmt.Sprintf("relay@%v", d.Proc.Now()))
		return 0, false
	})
	e.Connect(a, mid, sim.Nanosecond, 0, func(d *Delivery) (sim.Time, bool) {
		// mid is otherwise idle: its only emission is this relay.
		lMC.Send(d.Proc, sim.Nanosecond, d.Payload)
		return 0, false
	})
	// c has dense local activity far in the future relative to the relay.
	c.Kernel().Spawn("local", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			p.Sleep(10 * sim.Nanosecond)
			order = append(order, fmt.Sprintf("local@%v", p.Now()))
		}
	})
	a.Kernel().Spawn("src", func(p *sim.Proc) {
		p.Sleep(sim.Nanosecond)
		e.links[1].Send(p, sim.Nanosecond, "x")
	})
	if err := e.Run(sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	// Relay arrives at c at t=3ns, strictly before c's first local event at
	// 10ns; order must reflect that.
	want := fmt.Sprintf("relay@%v", 3*sim.Nanosecond)
	if len(order) == 0 || order[0] != want {
		t.Fatalf("order[0] = %v, want %s (one-hop floors would misorder)", order, want)
	}
}

// TestShardDeliveriesSpin: deliveries run as bodiless processes, so a shard
// whose only work is multi-step deliveries never resumes a coroutine, each
// delivery costs its kernel one event per handler step and none for its
// injection, and sees every step at its charged instant. The
// handler's State carries across its steps, and its last step sends on the
// destination's own link.
func TestShardDeliveriesSpin(t *testing.T) {
	e := NewEngine(2)
	a := e.NewShard("a", sim.New())
	b := e.NewShard("b", sim.New())
	var back []int
	ret := e.Connect(b, a, sim.Microsecond, 0, func(d *Delivery) (sim.Time, bool) {
		back = append(back, d.Payload.(int))
		return 0, false
	})
	const msgs = 50
	steps := make([][]string, msgs) // per message
	l := e.Connect(a, b, sim.Microsecond, 0, func(d *Delivery) (sim.Time, bool) {
		i := d.Payload.(int)
		steps[i] = append(steps[i], fmt.Sprintf("%d@%d", d.Step, d.Proc.Now()))
		switch d.Step {
		case 0:
			d.State = uint64(i) * 10
			return 5 * sim.Nanosecond, true
		case 1:
			return 0, true
		}
		ret.Send(d.Proc, sim.Microsecond, int(d.State))
		return 0, false
	})
	a.Kernel().Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			p.Sleep(sim.Time(i%3) * 100 * sim.Nanosecond)
			l.Send(p, sim.Microsecond, i)
		}
	})
	if err := e.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(back) != msgs {
		t.Fatalf("%d replies, want %d", len(back), msgs)
	}
	sent := sim.Time(0)
	for i := 0; i < msgs; i++ {
		sent += sim.Time(i%3) * 100 * sim.Nanosecond
		at := sent + sim.Microsecond
		want := fmt.Sprintf("0@%d 1@%d 2@%d", at, at+5*sim.Nanosecond, at+5*sim.Nanosecond)
		if got := strings.Join(steps[i], " "); got != want {
			t.Fatalf("message %d steps %q, want %q", i, got, want)
		}
		if back[i] != 10*i {
			t.Fatalf("reply %d carries %d, want %d", i, back[i], 10*i)
		}
	}
	k := b.Kernel()
	if k.Resumes() != 0 || k.Events() != 3*msgs || k.Live() != 0 {
		t.Errorf("destination kernel: %d resumes, %d events, %d live; want 0, %d and 0",
			k.Resumes(), k.Events(), k.Live(), 3*msgs)
	}
}

// sent identifies one message by the old merge key: its delivery instant,
// source shard, link and per-link send sequence.
type sent struct {
	deliver   sim.Time
	src, link int
	seq       int
}

// TestInjectionOrder: links connected out of (source, link) order carry
// messages with equal delivery instants from three source shards, and the
// handlers run in (deliver, source shard, link, sequence) order — the order
// a sort of the pending messages by that key gave when the engine merged
// them — with a local process on the destination interleaving at the same
// instants.
func TestInjectionOrder(t *testing.T) {
	for _, workers := range []int{1, 2} {
		e := NewEngine(workers)
		dst := e.NewShard("dst", sim.New())
		srcs := []*Shard{e.NewShard("a", sim.New()), e.NewShard("b", sim.New()), e.NewShard("c", sim.New())}
		var got []sent
		handler := func(d *Delivery) (sim.Time, bool) {
			if d.Step == 0 {
				return sim.Nanosecond, true
			}
			got = append(got, d.Payload.(sent))
			return 0, false
		}
		out := make([][]*Link, len(srcs))
		for _, i := range []int{2, 0, 1, 0, 2, 1, 2} {
			out[i] = append(out[i], e.Connect(srcs[i], dst, sim.Microsecond, 0, handler))
		}
		if !slices.IsSortedFunc(dst.in, func(a, b *Link) int {
			return cmp.Or(cmp.Compare(a.src.id, b.src.id), cmp.Compare(a.id, b.id))
		}) {
			t.Fatal("in-links not kept in (source, link) order")
		}
		sends := make([][]sent, len(srcs))
		for i, s := range srcs {
			s.Kernel().Spawn("sender", func(p *sim.Proc) {
				seq := map[int]int{}
				for r := 0; r < 12; r++ {
					p.Sleep(100 * sim.Nanosecond)
					for j, l := range out[i] {
						for m := 0; m <= (r+j)%2; m++ {
							delay := sim.Microsecond + sim.Time((r+i+m)%3)*100*sim.Nanosecond
							seq[l.id]++
							msg := sent{p.Now() + delay, s.id, l.id, seq[l.id]}
							sends[i] = append(sends[i], msg)
							l.Send(p, delay, msg)
						}
					}
				}
			})
		}
		dst.Kernel().Spawn("local", func(p *sim.Proc) {
			for r := 0; r < 40; r++ {
				p.Sleep(100 * sim.Nanosecond)
			}
		})
		if err := e.Run(sim.Second); err != nil {
			t.Fatal(err)
		}
		var want []sent
		for _, s := range sends {
			want = append(want, s...)
		}
		slices.SortFunc(want, func(a, b sent) int {
			return cmp.Or(cmp.Compare(a.deliver, b.deliver), cmp.Compare(a.src, b.src),
				cmp.Compare(a.link, b.link), cmp.Compare(a.seq, b.seq))
		})
		if !slices.Equal(got, want) {
			t.Fatalf("workers=%d: handlers ran in order\n%v\nwant\n%v", workers, got, want)
		}
		ties := 0
		for i := 1; i < len(want); i++ {
			if want[i].deliver == want[i-1].deliver && want[i].src != want[i-1].src {
				ties++
			}
		}
		if ties == 0 {
			t.Fatal("no two sources delivered at the same instant")
		}
	}
}

// TestDeliverySteadyStateZeroAllocs: once the engine's round scratch, the
// link queues and the destination's delivery and process free lists have
// grown, sending a message across a link, injecting it and delivering it in
// steps allocate nothing.
func TestDeliverySteadyStateZeroAllocs(t *testing.T) {
	e := NewEngine(1)
	a := e.NewShard("a", sim.New())
	b := e.NewShard("b", sim.New())
	delivered := 0
	l := e.Connect(a, b, sim.Microsecond, 0, func(d *Delivery) (sim.Time, bool) {
		if d.Step == 0 {
			return 10 * sim.Nanosecond, true
		}
		delivered++
		return 0, false
	})
	payload := &delivered
	a.Kernel().Spawn("sender", func(p *sim.Proc) {
		for {
			p.Sleep(300 * sim.Nanosecond)
			l.Send(p, sim.Microsecond, payload)
		}
	})
	until := sim.Time(0)
	run := func() {
		until += 10 * sim.Microsecond
		if err := e.Run(until); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("steady-state delivery allocates %v allocs/run, want 0", avg)
	}
	if delivered < 600 {
		t.Errorf("%d messages delivered, want at least 600", delivered)
	}
	a.Kernel().Shutdown()
}
