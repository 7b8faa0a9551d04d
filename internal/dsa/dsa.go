// Package dsa models an on-chip bulk-copy accelerator in the mold of
// Intel's Data Streaming Accelerator, which the paper's §6 identifies as
// the natural mechanism for CPU-initiated bulk transfers on a coherent NIC
// path: the core enqueues a descriptor (ENQCMD) and continues; the engine
// streams the copy through the coherence fabric and posts a completion
// record the core can poll.
//
// The engine charges the same coherence/link costs a CPU copy would (the
// data still crosses the interconnect), but frees the submitting core: the
// core pays only the enqueue cost and an optional completion poll.
package dsa

import (
	"fmt"

	"ccnic/internal/coherence"
	"ccnic/internal/mem"
	"ccnic/internal/sim"
)

// Enqueue cost of one ENQCMD descriptor submission (core-visible).
const enqueueCost = 35 * sim.Nanosecond

// startupLat is the engine-side latency before a submitted copy begins
// moving data (descriptor fetch, engine scheduling).
const startupLat = 950 * sim.Nanosecond

// Engine is one DSA instance with one or more parallel work lanes, each
// owning a coherence agent on the engine's socket (the engine participates
// in the protocol like a core would).
type Engine struct {
	sys    *coherence.System
	agents []*coherence.Agent
	queue  []job
	wake   *sim.Event
	stop   bool

	completed int64
}

// job is one offloaded copy.
type job struct {
	src, dst mem.Addr
	size     int
	submitAt sim.Time
	done     *Completion
}

// Completion is the polled completion record of a submitted copy.
type Completion struct {
	line  mem.Addr
	ready bool
	vis   sim.Time
}

// NewLanes creates an engine with the given number of parallel work lanes
// (DSA exposes multiple work queues and internal engines).
func NewLanes(sys *coherence.System, socket int, name string, lanes int) *Engine {
	if lanes <= 0 {
		panic("dsa: need at least one lane")
	}
	e := &Engine{
		sys:  sys,
		wake: sys.Kernel().NewEvent(name + ".wake"),
	}
	for i := 0; i < lanes; i++ {
		a := sys.NewAgent(socket, fmt.Sprintf("%s.lane%d", name, i))
		e.agents = append(e.agents, a)
		i := i
		sys.Kernel().Spawn(fmt.Sprintf("%s.%d", name, i), func(p *sim.Proc) {
			e.laneMain(p, e.agents[i])
		})
	}
	return e
}

// Submit enqueues a copy of size bytes from src to dst on behalf of the
// submitting core (charged the ENQCMD cost only) and returns a completion
// record to poll.
func (e *Engine) Submit(p *sim.Proc, submitter *coherence.Agent, src, dst mem.Addr, size int) *Completion {
	if size <= 0 {
		panic(fmt.Sprintf("dsa: invalid copy size %d", size))
	}
	c := &Completion{line: e.sys.Space().AllocLines(submitter.Socket(), 1)}
	submitter.Exec(p, enqueueCost)
	e.queue = append(e.queue, job{src: src, dst: dst, size: size, submitAt: p.Now(), done: c})
	e.wake.Signal()
	return c
}

// Poll checks the completion record, charging the submitting core's read of
// the completion line. It reports whether the copy has finished.
func (c *Completion) Poll(p *sim.Proc, submitter *coherence.Agent) bool {
	submitter.Poll(p, c.line, 8)
	return c.ready && p.Now() >= c.vis
}

// Wait polls until the copy completes.
func (c *Completion) Wait(p *sim.Proc, submitter *coherence.Agent) {
	for !c.Poll(p, submitter) {
		p.Sleep(20 * sim.Nanosecond)
	}
}

// Completed returns the number of finished copies (for tests).
func (e *Engine) Completed() int64 { return e.completed }

// Stop shuts the engine processes down after their current jobs.
func (e *Engine) Stop() {
	e.stop = true
	e.wake.Signal()
}

// laneMain is one engine lane: it drains the work queue, streaming each
// copy through the coherence model and posting the completion record. The
// startup latency pipelines: a lane busy past a job's startup window starts
// the copy immediately.
func (e *Engine) laneMain(p *sim.Proc, agent *coherence.Agent) {
	for {
		for len(e.queue) == 0 {
			if e.stop {
				return
			}
			p.Wait(e.wake)
		}
		j := e.queue[0]
		e.queue = e.queue[1:]
		if ready := j.submitAt + startupLat; ready > p.Now() {
			p.Sleep(ready - p.Now())
		}
		// The engine moves data with wide, pipelined accesses — the
		// same fabric costs as a CPU copy, without occupying a core.
		agent.StreamRead(p, j.src, j.size)
		agent.StreamWrite(p, j.dst, j.size)
		vis := agent.WriteAsync(p, j.done.line, 8)
		j.done.vis = vis
		j.done.ready = true
		e.completed++
	}
}
