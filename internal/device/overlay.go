package device

import (
	"fmt"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/mem"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// Overlay is the CC-NIC Overlay of §4: applications use a coherent (UPI)
// interface on the host socket, while overlay threads on the NIC socket
// bridge each UPI queue pair to a PCIe NIC queue pair, copying payloads and
// translating descriptors in both directions. It lets application-level
// workloads run over the CC-NIC interface while real network I/O happens on
// a conventional PCIe NIC — trading overlay-thread cores for application
// cores, exactly as the paper measures.
type Overlay struct {
	front *UPI
	back  *PCIeNIC

	threads []*coherence.Agent // overlay forwarding threads (NIC socket)
	stopped bool
}

// NewOverlay builds an overlay device.
//
//	hosts    — application-side agents (host socket), one per queue.
//	overlays — forwarding-thread agents (NIC socket); queue i is handled
//	           by overlays[i%len(overlays)], so fewer overlay threads than
//	           queues models the paper's thread-count sweeps.
//	frontCfg — the coherent interface design point (CC-NIC or unopt).
//	nic      — the PCIe NIC parameters (the paper uses the CX6).
func NewOverlay(sys *coherence.System, frontCfg UPIConfig, nic *platform.NICParams,
	hosts, overlays []*coherence.Agent) *Overlay {
	if len(overlays) == 0 {
		panic("device: overlay needs forwarding threads")
	}
	// Each front queue's NIC-side agent is its overlay thread; the back
	// PCIe queue is bound to the same agent.
	nicAgents := make([]*coherence.Agent, len(hosts))
	for i := range hosts {
		nicAgents[i] = overlays[i%len(overlays)]
	}
	o := &Overlay{
		front:   NewUPI("overlay-front", sys, frontCfg, hosts, nicAgents),
		threads: overlays,
	}
	o.back = NewPCIeNIC(sys, nic, nicAgents)
	return o
}

// Name returns the device name.
func (o *Overlay) Name() string { return "CC-NIC Overlay (" + o.back.Name() + ")" }

// NumQueues returns the application-facing queue count.
func (o *Overlay) NumQueues() int { return o.front.NumQueues() }

// Queue returns the application-facing (coherent) queue i.
func (o *Overlay) Queue(i int) Queue { return o.front.Queue(i) }

// Back returns the underlying PCIe NIC (for ingress configuration).
func (o *Overlay) Back() *PCIeNIC { return o.back }

// Kernel returns the device's shard affinity: front-end and back-end share
// one memory system, hence one kernel.
func (o *Overlay) Kernel() *sim.Kernel { return o.front.Kernel() }

// SetIngress implements Injector: ingress traffic arrives at the PCIe NIC.
func (o *Overlay) SetIngress(i int, rate float64, gen func() int) {
	o.back.SetIngress(i, rate, gen)
}

// TxCount implements Injector: transmissions are counted where they leave.
func (o *Overlay) TxCount(i int) int64 { return o.back.TxCount(i) }

// Start spawns the PCIe device pipeline and the overlay forwarding threads.
// The front UPI device's own NIC processes are not started; the overlay
// threads take their place. Forwarding work is split into per-queue TX and
// RX tasks distributed round-robin, so extra overlay threads (up to two per
// queue) add forwarding capacity.
func (o *Overlay) Start() {
	o.back.Start()
	sys := o.front.sys
	nq := o.front.NumQueues()
	nt := len(o.threads)
	for t, a := range o.threads {
		t, a := t, a
		var tx, rx []int
		for task := 0; task < 2*nq; task++ {
			if task%nt != t {
				continue
			}
			if task < nq {
				tx = append(tx, task)
			} else {
				rx = append(rx, task-nq)
			}
		}
		if len(tx) == 0 && len(rx) == 0 {
			continue
		}
		sys.Kernel().Spawn(fmt.Sprintf("overlay%d", t), func(p *sim.Proc) {
			o.forwardMain(p, a, tx, rx)
		})
	}
}

// Stop halts overlay threads and the PCIe device.
func (o *Overlay) Stop() {
	o.stopped = true
	o.back.Stop()
}

// forwardMain is one overlay thread: it polls the UPI TX rings of its TX
// tasks and the PCIe RX queues of its RX tasks, forwarding packets.
func (o *Overlay) forwardMain(p *sim.Proc, a *coherence.Agent, txQueues, rxQueues []int) {
	cfg := &o.front.cfg
	pollGap := o.front.sys.Platform().PollGap
	burst := cfg.NICBurst
	rx := make([]*bufpool.Buf, burst)
	// The thread's own per-burst scratch. A queue's TX and RX tasks may
	// run on different threads, so the thread builds its lists here; of
	// the queue's scratch it touches only the TX path's (regConsumeTx,
	// completeTx), which the queue's TX task alone runs.
	txBufs := make([]*bufpool.Buf, burst)
	var (
		metaBuf []pktMeta
		lines   []mem.Addr
		out     []*bufpool.Buf
		fwd     []rxMeta
	)
	for !o.stopped {
		busy := false
		for _, qi := range txQueues {
			fq := o.front.qs[qi]
			bq := o.back.qs[qi]

			// --- UPI TX -> PCIe TX ---
			var metas []pktMeta
			if cfg.InlineSignal {
				n := fq.txI.Consume(p, a, txBufs)
				metaBuf = snapshot(metaBuf[:0], txBufs[:n], cfg.NICBufMgmt)
				metas = metaBuf
			} else {
				metas = fq.regConsumeTx(p, false)
			}
			if len(metas) > 0 {
				busy = true
				// Copy only the inline segments; zero-copy external
				// segments (the KV store's object payloads) pass
				// through as DMA references — the PCIe device can
				// fetch any host address.
				lines = lines[:0]
				for _, m := range metas {
					lines = mem.AppendLines(lines, m.addr, m.len)
				}
				a.GatherRead(p, lines)
				out = out[:0]
				for _, m := range metas {
					nb := bq.Port().Alloc(p, m.len)
					if nb == nil {
						continue
					}
					nb.Len, nb.Seq, nb.Born = m.len, m.seq, m.born
					nb.ExtAddr, nb.ExtLen = m.ext, m.extLen
					out = append(out, nb)
					if cfg.NICBufMgmt {
						fq.nicPort.Free(p, m.buf)
					}
				}
				lines = bufpool.Lines(lines[:0], out)
				a.ScatterWrite(p, lines)
				if !cfg.InlineSignal && !cfg.NICBufMgmt {
					fq.completeTx(p, len(metas))
				}
				sent := bq.TxBurst(p, out)
				if sent < len(out) {
					bq.Port().FreeBurst(p, out[sent:])
				}
			}
		}
		for _, qi := range rxQueues {
			fq := o.front.qs[qi]
			bq := o.back.qs[qi]

			// --- PCIe RX -> UPI RX ---
			got := bq.RxBurst(p, rx)
			if got > 0 {
				busy = true
				lines = bufpool.Lines(lines[:0], rx[:got])
				a.GatherRead(p, lines) // DDIO: local LLC
				fwd = fwd[:0]
				for i := 0; i < got; i++ {
					b := rx[i]
					fwd = append(fwd, rxMeta{size: b.Len, seq: b.Seq, born: b.Born})
				}
				// Forward losslessly: applications depend on every
				// accepted packet arriving (backpressure, not drops).
				for pending := fwd; len(pending) > 0 && !o.stopped; {
					n := fq.rxEmit(p, pending)
					pending = pending[n:]
					if n == 0 {
						p.Sleep(pollGap * 8)
					}
				}
				bq.Release(p, rx[:got])
			}
		}
		if !busy {
			p.Sleep(pollGap)
		}
	}
}
