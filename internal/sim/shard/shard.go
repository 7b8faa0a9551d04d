// Package shard runs a partitioned simulation: several sim.Kernel instances
// (shards), each owning its own event heap and process set, advance
// concurrently under conservative lookahead synchronization.
//
// The model is partitioned at its natural seams — in CC-NIC terms, per-node
// pipelines whose only cross-node coupling is a physical link (UPI, PCIe, or
// a network hop) with a declared minimum latency. That minimum latency is
// the lookahead: a shard may safely advance its local clock to
//
//	horizon(i) = min over in-links (j->i) of floor(j) + minLatency(j->i)
//
// where floor(j) is the earliest instant shard j could still emit a message
// (its next scheduled wakeup, or an already-queued inbound delivery that
// could wake it). Because every link's minimum latency is strictly positive,
// every round strictly advances at least one shard — the classical
// conservative (CMB-style) progress guarantee.
//
// Execution is organized in barrier-synchronous rounds driven by Engine.Run:
//
//  1. compute every shard's floor, then every shard's horizon;
//  2. deterministically merge each shard's pending inbound messages with
//     delivery times within its horizon, ordered by (deliver time, source
//     shard, link sequence), and inject them as bodiless kernel processes
//     (sim.Kernel.SpawnSpin): each delivery runs as a sequence of steps,
//     with no coroutine of its own;
//  3. run every shard's kernel to its horizon — in parallel on up to
//     `workers` OS goroutines, or inline when workers <= 1;
//  4. barrier: collect the messages each shard sent during the round into
//     the destination links' queues.
//
// Within a round each kernel is single-threaded (the sim package guarantee),
// each link outbox is written only by its source shard, and the engine alone
// touches link queues between rounds, so the runtime needs no locks beyond
// the barrier itself. Results are bit-identical for every worker count,
// including fully serial execution: the merge order and the round structure
// are pure functions of the model, never of goroutine scheduling.
//
// This package is the only place outside package sim itself where goroutines
// are legal (enforced by cclint's detlint); model code stays deterministic
// and single-threaded, and crosses shards only through Link.Send at declared
// boundaries (enforced by cclint's shardlint).
package shard

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"ccnic/internal/sim"
)

// DeliverFunc handles one cross-shard message on the destination shard, as
// a sequence of steps. The first call, with d.Step 0, runs at the message's
// delivery time. A call that returns (dt, true) is called again dt later,
// with d.Step one higher; (_, false) ends the delivery. Each call runs as a
// spin step of a bodiless process on the destination kernel (see
// sim.Kernel.SpawnSpin): it may signal events, spawn processes and send on
// the destination shard's links, but it must not block, so a handler
// charges time by returning it, never by sleeping.
type DeliverFunc func(d *Delivery) (sim.Time, bool)

// Delivery is one cross-shard message being delivered. The engine recycles
// it once the handler's last step returns, so a handler must not keep it.
type Delivery struct {
	// Proc is the delivery's bodiless process on the destination kernel:
	// the handle for Now and for Link.Send on the destination's links.
	Proc    *sim.Proc
	Payload any
	// Step counts the handler's calls for this message: 0 at the delivery
	// instant.
	Step int
	// State is one word the handler carries between its steps; 0 at the
	// first.
	State uint64

	s       *Shard
	deliver DeliverFunc
	wait    sim.Time                // from injection to the delivery instant
	step    func() (sim.Time, bool) // d.run, bound once
}

// run is the delivery process's step. Its first call is the event a
// spawned process's first resume would be, and it sleeps to the delivery
// instant; every later call runs one handler step.
//
//ccnic:noalloc
func (d *Delivery) run() (sim.Time, bool) {
	if d.Step < 0 {
		d.Step = 0
		return d.wait, true
	}
	dt, more := d.deliver(d)
	if more {
		d.Step++
		return dt, true
	}
	d.Proc, d.Payload, d.deliver = nil, nil, nil
	d.s.free = append(d.s.free, d)
	return 0, false
}

// Engine coordinates a set of shards through conservative-lookahead rounds.
type Engine struct {
	workers int
	shards  []*Shard
	links   []*Link
	running bool

	// round scratch, reused across rounds to keep steady state light.
	floors   []sim.Time
	horizons []sim.Time
	merge    []Message
	runnable []*Shard
}

// NewEngine creates an engine that runs shard rounds on up to workers
// goroutines. workers <= 1 selects fully inline execution (no goroutines at
// all); any value produces bit-identical results.
func NewEngine(workers int) *Engine {
	if workers < 1 {
		workers = 1
	}
	return &Engine{workers: workers}
}

// Shards returns the shards in creation (id) order.
func (e *Engine) Shards() []*Shard { return e.shards }

// Shard is one partition: a kernel plus its cross-shard link endpoints.
type Shard struct {
	id   int
	name string
	k    *sim.Kernel

	in  []*Link // links delivering to this shard
	out []*Link // links this shard sends on

	// free holds the shard's finished deliveries for reuse. Deliveries end
	// on the shard's own worker and are injected between rounds, so a list
	// per shard needs no lock at any worker count.
	free []*Delivery

	err error // first kernel error of the current round
}

// NewShard registers a kernel as a shard. The kernel must be driven only
// through the engine from this point on.
func (e *Engine) NewShard(name string, k *sim.Kernel) *Shard {
	s := &Shard{id: len(e.shards), name: name, k: k}
	e.shards = append(e.shards, s)
	return s
}

// ID returns the shard's stable id (creation order).
func (s *Shard) ID() int { return s.id }

// Name returns the shard's debug name.
func (s *Shard) Name() string { return s.name }

// Kernel returns the shard's kernel, for model construction and inspection
// between Engine.Run calls.
func (s *Shard) Kernel() *sim.Kernel { return s.k }

// Message is one cross-shard event in flight.
type Message struct {
	Deliver sim.Time // delivery instant on the destination shard
	Payload any

	src  int    // source shard id: first merge tiebreak
	link int    // destination-link id: second merge tiebreak
	seq  uint64 // per-link send sequence: final merge tiebreak
}

// Link is a declared shard boundary: a unidirectional, bounded, SPSC channel
// from one shard to another with a strictly positive minimum latency that
// serves as the destination's lookahead.
type Link struct {
	id       int
	src, dst *Shard
	minLat   sim.Time
	capacity int
	deliver  DeliverFunc

	seq    uint64
	outbox []Message // written by src's shard during a round
	queue  []Message // pending at dst, engine-owned between rounds
}

// Connect declares a link from src to dst with the given minimum latency
// (the lookahead, strictly positive) and FIFO capacity (messages in flight;
// <= 0 selects a generous default). deliver runs on dst's kernel, in steps,
// for each message.
func (e *Engine) Connect(src, dst *Shard, minLat sim.Time, capacity int, deliver DeliverFunc) *Link {
	if minLat <= 0 {
		panic("shard: link minimum latency must be strictly positive (it is the lookahead)")
	}
	if src == dst {
		panic("shard: a link must cross shards")
	}
	if capacity <= 0 {
		capacity = 4096
	}
	l := &Link{
		id:       len(e.links),
		src:      src,
		dst:      dst,
		minLat:   minLat,
		capacity: capacity,
		deliver:  deliver,
	}
	e.links = append(e.links, l)
	src.out = append(src.out, l)
	dst.in = append(dst.in, l)
	return l
}

// Send queues a message across the link, to be delivered delay after the
// source shard's current instant. It must be called from a process of the
// source shard (the declared boundary), and delay must be at least the
// link's minimum latency — both are checked, because either violation would
// silently break the conservative horizon math.
func (l *Link) Send(p *sim.Proc, delay sim.Time, payload any) {
	if p.Kernel() != l.src.k {
		panic(fmt.Sprintf("shard: Send on link %s->%s from a process of another shard",
			l.src.name, l.dst.name))
	}
	if delay < l.minLat {
		panic(fmt.Sprintf("shard: Send on link %s->%s with delay %v below the declared minimum latency %v",
			l.src.name, l.dst.name, delay, l.minLat))
	}
	if len(l.outbox)+len(l.queue) >= l.capacity {
		panic(fmt.Sprintf("shard: link %s->%s FIFO overflow (capacity %d)",
			l.src.name, l.dst.name, l.capacity))
	}
	l.seq++
	l.outbox = append(l.outbox, Message{
		Deliver: p.Now() + delay,
		Payload: payload,
		src:     l.src.id,
		link:    l.id,
		seq:     l.seq,
	})
}

// localFloor returns the earliest instant the shard could wake from its own
// state: its kernel's next scheduled wakeup or the earliest pending inbound
// delivery, whichever comes first; sim.Never if both are absent.
func (e *Engine) localFloor(s *Shard) sim.Time {
	f := sim.Never
	if wake, ok := s.k.NextWake(); ok {
		f = wake
	}
	for _, l := range s.in {
		for i := range l.queue {
			if l.queue[i].Deliver < f {
				f = l.queue[i].Deliver
			}
		}
	}
	return f
}

// relaxFloors lowers each shard's floor to the conservative fixpoint
//
//	floor(i) = min(localFloor(i), min over in-links (floor(src) + minLat))
//
// One-hop floors alone are unsafe: a quiet shard can be woken by a neighbor
// earlier than its own next event and relay a message onward, so "earliest
// possible emission" must propagate transitively. Relaxation terminates
// because floors only decrease, in whole-picosecond steps, and every link
// latency is strictly positive (the classic Bellman-Ford argument).
func (e *Engine) relaxFloors() {
	for changed := true; changed; {
		changed = false
		for _, l := range e.links {
			f := e.floors[l.src.id]
			if f == sim.Never {
				continue
			}
			if v := f + l.minLat; v < e.floors[l.dst.id] {
				e.floors[l.dst.id] = v
				changed = true
			}
		}
	}
}

// Run advances all shards to virtual time `until`. It returns when every
// shard has reached `until`, or earlier when the whole system is quiescent
// (no scheduled process and no message in flight anywhere). Repeated calls
// with increasing `until` continue the same simulation.
func (e *Engine) Run(until sim.Time) error {
	if e.running {
		return fmt.Errorf("shard: engine already running")
	}
	if len(e.shards) == 0 {
		return nil
	}
	e.running = true
	defer func() { e.running = false }()

	e.floors = e.floors[:0]
	e.horizons = e.horizons[:0]
	for range e.shards {
		e.floors = append(e.floors, 0)
		e.horizons = append(e.horizons, 0)
	}

	for {
		// Phase 1: floors (relaxed to the conservative fixpoint), then
		// horizons from the declared lookaheads.
		quiescent := true
		for i, s := range e.shards {
			e.floors[i] = e.localFloor(s)
			if e.floors[i] != sim.Never {
				quiescent = false
			}
		}
		if quiescent {
			return nil
		}
		e.relaxFloors()
		for i, s := range e.shards {
			h := until
			for _, l := range s.in {
				if f := e.floors[l.src.id]; f != sim.Never && f+l.minLat < h {
					h = f + l.minLat
				}
			}
			e.horizons[i] = h
		}

		// Phase 2: deterministic merge-and-inject, then run each shard
		// that has an event inside its horizon. (A shard whose clock lags
		// its horizon but has no event to execute is skipped: an empty
		// kernel cannot advance its own clock, and running it would spin.)
		ran := 0
		for i, s := range e.shards {
			e.inject(s, e.horizons[i])
			if firstWake(s.k) <= e.horizons[i] {
				ran++
			} else {
				e.horizons[i] = -1 // skip marker
			}
		}
		if ran == 0 {
			// Every remaining event and pending delivery lies beyond its
			// shard's horizon, which is capped at until: the window is
			// exhausted.
			return nil
		}
		e.runRound()
		for _, s := range e.shards {
			if s.err != nil {
				return fmt.Errorf("shard %s: %w", s.name, s.err)
			}
		}

		// Phase 3 (barrier passed): move round sends into link queues, in
		// fixed link order so queue contents are schedule-independent.
		for _, l := range e.links {
			l.queue = append(l.queue, l.outbox...)
			l.outbox = l.outbox[:0]
		}

		done := true
		for _, s := range e.shards {
			if s.k.Now() < until {
				done = false
				break
			}
		}
		if done {
			return nil
		}
	}
}

// firstWake returns the kernel's next scheduled instant, or never.
func firstWake(k *sim.Kernel) sim.Time {
	if wake, ok := k.NextWake(); ok {
		return wake
	}
	return sim.Never
}

// inject merges the shard's pending inbound messages with delivery times
// within horizon — ordered by (deliver, source shard, link, sequence) — and
// schedules each as a bodiless process on the shard's kernel. Injection
// happens before the round runs, so the merge order is independent of
// worker count.
func (e *Engine) inject(s *Shard, horizon sim.Time) {
	e.merge = e.merge[:0]
	for _, l := range s.in {
		kept := l.queue[:0]
		for _, m := range l.queue {
			if m.Deliver <= horizon {
				e.merge = append(e.merge, m)
			} else {
				kept = append(kept, m)
			}
		}
		for i := len(kept); i < len(l.queue); i++ {
			l.queue[i] = Message{}
		}
		l.queue = kept
	}
	if len(e.merge) == 0 {
		return
	}
	// The key is unique (a link's sequence numbers are), so an unstable
	// sort gives the one order a stable sort would.
	slices.SortFunc(e.merge, func(a, b Message) int {
		return cmp.Or(cmp.Compare(a.Deliver, b.Deliver), cmp.Compare(a.src, b.src),
			cmp.Compare(a.link, b.link), cmp.Compare(a.seq, b.seq))
	})
	for i := range e.merge {
		m := &e.merge[i]
		var d *Delivery
		if n := len(s.free); n > 0 {
			d = s.free[n-1]
			s.free[n-1] = nil
			s.free = s.free[:n-1]
		} else {
			d = &Delivery{s: s}
			d.step = d.run
		}
		d.Payload = m.Payload
		d.Step, d.State = -1, 0 // run's first call waits to the delivery instant
		d.deliver = e.links[m.link].deliver
		d.wait = m.Deliver - s.k.Now()
		d.Proc = s.k.SpawnSpin("shard.deliver", d.step)
	}
}

// runRound drives every non-skipped shard to its horizon, fanning out to the
// worker budget. Worker count never affects results: shards share no state
// during a round, and all cross-shard traffic is reconciled at the barrier.
func (e *Engine) runRound() {
	runnable := e.runnable[:0]
	for i, s := range e.shards {
		if e.horizons[i] >= 0 {
			runnable = append(runnable, s)
		}
	}
	e.runnable = runnable
	w := e.workers
	if w > len(runnable) {
		w = len(runnable)
	}
	if w <= 1 {
		for _, s := range runnable {
			e.runShard(s)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan *Shard, len(runnable))
	for _, s := range runnable {
		next <- s
	}
	close(next)
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() { //ccnic:nondet-ok barrier-synchronous fan-out; shards share no state within a round
			defer wg.Done()
			for s := range next {
				e.runShard(s)
			}
		}()
	}
	wg.Wait()
}

// runShard advances one shard to its horizon, capturing kernel errors and
// model panics for the engine to surface after the barrier.
func (e *Engine) runShard(s *Shard) {
	defer func() {
		if r := recover(); r != nil {
			s.err = fmt.Errorf("panic: %v", r)
		}
	}()
	s.err = s.k.RunUntil(e.horizons[s.id])
}
