// Package rpcstack models the paper's TCP RPC workload (§5.7): a TAS-style
// userspace TCP service. Fast-path threads own NIC queues and perform
// per-packet TCP processing (flow lookup, sequence/ack state updates);
// application threads exchange RPCs with the fast path through shared-memory
// queues — here an echo server, as in the paper's evaluation. The NIC
// interface is a drop-in choice (PCIe direct or CC-NIC Overlay), so the
// experiment measures how many fast-path threads each interface needs to
// saturate the NIC.
package rpcstack

import (
	"fmt"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/device"
	"ccnic/internal/fault"
	"ccnic/internal/loopback"
	"ccnic/internal/mem"
	"ccnic/internal/sim"
)

// Per-packet fast-path CPU costs (instructions beyond memory operations),
// modeled on TAS's reported fast-path budget.
const (
	tcpRxCost = 22 * sim.Nanosecond
	tcpTxCost = 18 * sim.Nanosecond
	appCost   = 4 * sim.Nanosecond // echo application work per RPC
)

// burst is the fast-path RX and message-ring burst.
const burst = 32

// msgRing is a shared-memory SPSC message queue between a fast-path thread
// and an application thread (both on the host socket). Messages are
// 16B slots packed 4 per line with a line-granularity ready protocol, like
// the NIC rings; costs are charged through the coherence model.
type msgRing struct {
	base   mem.Addr
	nLines int
	slots  []int // per-line message count; 0 = clear
	vis    []sim.Time
	prod   int
	cons   int
}

func newMsgRing(sys *coherence.System, nLines, socket int) *msgRing {
	return &msgRing{
		base:   sys.Space().AllocLines(socket, nLines),
		nLines: nLines,
		slots:  make([]int, nLines),
		vis:    make([]sim.Time, nLines),
	}
}

func (r *msgRing) lineAddr(i int) mem.Addr {
	return r.base + mem.Addr((i%r.nLines)*mem.LineSize)
}

// push publishes up to n messages, returning how many were accepted.
func (r *msgRing) push(p *sim.Proc, a *coherence.Agent, n int) int {
	pushed := 0
	for pushed < n {
		if r.prod-r.cons >= r.nLines-1 {
			break // ring full
		}
		batch := n - pushed
		if batch > 4 {
			batch = 4
		}
		idx := r.prod % r.nLines
		vis := a.WriteAsync(p, r.lineAddr(r.prod), mem.LineSize)
		r.vis[idx] = vis
		r.slots[idx] = batch
		r.prod++
		pushed += batch
	}
	return pushed
}

// pop consumes up to max messages.
func (r *msgRing) pop(p *sim.Proc, a *coherence.Agent, max int) int {
	took := 0
	for took < max && r.cons < r.prod {
		idx := r.cons % r.nLines
		a.Poll(p, r.lineAddr(r.cons), 16)
		if p.Now() < r.vis[idx] {
			break
		}
		if r.slots[idx] == 0 || took+r.slots[idx] > max {
			break
		}
		took += r.slots[idx]
		r.slots[idx] = 0
		a.WriteAsync(p, r.lineAddr(r.cons), mem.LineSize) // clear
		r.cons++
	}
	return took
}

// Config describes one RPC benchmark run.
type Config struct {
	Sys *coherence.System
	Dev device.Device // must implement device.Injector

	// FastPath agents, one per NIC queue (the TAS fast-path threads).
	FastPath []*coherence.Agent
	// App is the application (echo server) agent.
	App *coherence.Agent

	// RPCSize is the echo payload size (the paper uses 64B).
	RPCSize int
	// RatePerQueue is the offered RPC rate per fast-path thread.
	RatePerQueue float64

	Warmup  sim.Time // default 50us
	Measure sim.Time // default 200us
}

// Result reports the echo throughput.
type Result struct {
	OpsPerSec float64
}

// Mops returns millions of echo RPCs per second.
func (r *Result) Mops() float64 { return r.OpsPerSec / 1e6 }

// Run executes the echo RPC workload.
func Run(cfg Config) Result {
	if cfg.RPCSize == 0 {
		cfg.RPCSize = 64
	}
	nq := cfg.Dev.NumQueues()
	sys := cfg.Sys
	hostSocket := cfg.App.Socket()

	// Flow state: one cache line per flow, touched per packet.
	const flows = 96 // the paper's client uses 96 flows
	flowBase := sys.Space().AllocLines(hostSocket, flows)

	w := &loopback.Window{Name: "rpcstack", Sys: sys, Dev: cfg.Dev, Hosts: len(cfg.FastPath),
		Warmup: cfg.Warmup, Measure: cfg.Measure,
		Rate: cfg.RatePerQueue, Ingress: func(int) int { return cfg.RPCSize }}
	w.Start()
	// Count echoes at the NIC, not at ring submission (backlog is not
	// throughput).
	w.CountTx()
	end := w.End

	// Shared-memory queues between each fast-path thread and the app.
	toApp := make([]*msgRing, nq)
	toFP := make([]*msgRing, nq)
	for i := 0; i < nq; i++ {
		toApp[i] = newMsgRing(sys, 256, hostSocket)
		toFP[i] = newMsgRing(sys, 256, hostSocket)
	}

	// Fast-path threads.
	for i := 0; i < nq; i++ {
		i := i
		q := cfg.Dev.Queue(i)
		a := cfg.FastPath[i]
		flowOff := 0
		w.Go(fmt.Sprintf("fastpath%d", i), func(p *sim.Proc) {
			rx := make([]*bufpool.Buf, burst)
			pendingToApp := 0
			for p.Now() < end {
				busy := false
				// RX: TCP receive processing, then hand to the app.
				got := q.RxBurst(p, rx)
				if got > 0 {
					busy = true
					for j := 0; j < got; j++ {
						// Flow table lookup + state update.
						fl := flowBase + mem.Addr(((flowOff+j)%flows)*mem.LineSize)
						a.Read(p, fl, 32)
						a.Exec(p, tcpRxCost)
						a.Write(p, fl, 16)
					}
					flowOff += got
					q.Release(p, rx[:got])
					pendingToApp += got
				}
				if pendingToApp > 0 {
					pendingToApp -= toApp[i].push(p, a, pendingToApp)
				}
				// Responses back from the app: TCP transmit.
				n := toFP[i].pop(p, a, burst)
				if n > 0 {
					busy = true
					resp := make([]*bufpool.Buf, 0, n)
					for j := 0; j < n; j++ {
						b := q.Port().Alloc(p, cfg.RPCSize)
						if b == nil {
							break
						}
						b.Len = cfg.RPCSize
						a.Exec(p, tcpTxCost)
						resp = append(resp, b)
					}
					a.ScatterWrite(p, loopback.FirstLines(resp))
					sent := w.Push(p, q, i, resp, fastPathPush)
					if sent < len(resp) {
						q.Port().FreeBurst(p, resp[sent:])
					}
				}
				if !busy {
					p.Sleep(sys.Platform().PollGap * 2)
				}
			}
		})
	}

	// Application (echo) thread: drains every fast-path queue.
	w.Go("app", func(p *sim.Proc) {
		for p.Now() < end {
			busy := false
			for i := 0; i < nq; i++ {
				n := toApp[i].pop(p, cfg.App, burst)
				if n == 0 {
					continue
				}
				busy = true
				cfg.App.Exec(p, sim.Time(n)*appCost)
				for pushed := 0; pushed < n && p.Now() < end; {
					m := toFP[i].push(p, cfg.App, n-pushed)
					if m == 0 {
						p.Sleep(50 * sim.Nanosecond)
						continue
					}
					pushed += m
				}
			}
			if !busy {
				p.Sleep(sys.Platform().PollGap * 2)
			}
		}
	})

	w.Finish()
	return Result{OpsPerSec: float64(w.Transmitted()) / w.Measure.Seconds()}
}

// fastPathPush is the fast path's TX push: the TAS-style retransmission
// timer backs off up to 6.4us (7 backoffs, ~12.7us cumulative), then
// drops the remainder in degraded mode. The peer's end-to-end
// retransmission recovers the RPC, and the fast path must not wedge on
// one stuck queue.
var fastPathPush = loopback.Backoff{Budget: 7, Credit: (*fault.Stats).NoteRetransmit}
