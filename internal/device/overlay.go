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
// threads take their place.
func (o *Overlay) Start() {
	o.back.Start()
	for t := range o.threads {
		o.startThread(t)
	}
}

// startThread spawns forwarding thread t over its share of the tasks, if it
// has any. Queue i's TX task is task i and its RX task task nq+i, dealt
// round-robin, so extra threads (up to two per queue) add forwarding
// capacity. A thread whose only task is one queue's TX, and which is that
// queue's NIC agent, polls the front ring as a single-queue NIC core does
// (upiQueue.pollLoop): its idle polls run as spin steps.
func (o *Overlay) startThread(t int) {
	nq, nt := o.front.NumQueues(), len(o.threads)
	a := o.threads[t]
	var tx, rx []int
	for task := t; task < 2*nq; task += nt {
		if task < nq {
			tx = append(tx, task)
		} else {
			rx = append(rx, task-nq)
		}
	}
	if len(tx) == 0 && len(rx) == 0 {
		return
	}
	f := o.newForwarder(a)
	body := func(p *sim.Proc) { f.forwardMain(p, tx, rx) }
	if len(tx) == 1 && len(rx) == 0 && o.front.qs[tx[0]].nic == a {
		fq := o.front.qs[tx[0]]
		serve := func(p *sim.Proc, polled bool) bool { return f.forwardTx(p, tx[0], polled) }
		body = func(p *sim.Proc) { fq.pollLoop(p, serve) }
	}
	o.front.sys.Kernel().Spawn(fmt.Sprintf("overlay%d", t), body)
}

// Stop halts overlay threads and the PCIe device. Marking the front queues
// stopped ends their TX threads' idle spins.
func (o *Overlay) Stop() {
	o.stopped = true
	for _, q := range o.front.qs {
		q.stop()
	}
	o.back.Stop()
}

// forwarder is one overlay thread: its agent and its own per-burst
// scratch. A queue's TX and RX tasks may run on different threads, so the
// thread builds its lists here; of the queue's scratch it touches the TX
// path's (regConsumeTx, completeTx) only from the queue's TX task, and the
// RX path's (rxEmit) only from its RX task.
type forwarder struct {
	o      *Overlay
	a      *coherence.Agent
	rx     []*bufpool.Buf
	txBufs []*bufpool.Buf
	metas  []pktMeta
	lines  []mem.Addr
	out    []*bufpool.Buf
	fwd    []rxMeta
}

func (o *Overlay) newForwarder(a *coherence.Agent) *forwarder {
	burst := o.front.cfg.NICBurst
	return &forwarder{o: o, a: a,
		rx: make([]*bufpool.Buf, burst), txBufs: make([]*bufpool.Buf, burst)}
}

// forwardMain polls the UPI TX rings of the thread's TX tasks and the PCIe
// RX queues of its RX tasks, forwarding packets.
func (f *forwarder) forwardMain(p *sim.Proc, txQueues, rxQueues []int) {
	pollGap := f.o.front.sys.Platform().PollGap
	for !f.o.stopped {
		busy := false
		for _, qi := range txQueues {
			busy = f.forwardTx(p, qi, false) || busy
		}
		for _, qi := range rxQueues {
			busy = f.forwardRx(p, qi) || busy
		}
		if !busy {
			p.Sleep(pollGap)
		}
	}
}

// forwardTx forwards one burst from front queue qi's UPI TX ring to its
// PCIe TX queue and reports whether it found any. polled continues a
// register-ring poll an idlePoll step has made and found work behind.
func (f *forwarder) forwardTx(p *sim.Proc, qi int, polled bool) bool {
	cfg := &f.o.front.cfg
	a := f.a
	fq := f.o.front.qs[qi]
	bq := f.o.back.qs[qi]
	var metas []pktMeta
	if cfg.InlineSignal {
		n := fq.txI.Consume(p, a, f.txBufs)
		f.metas = snapshot(f.metas[:0], f.txBufs[:n], cfg.NICBufMgmt)
		metas = f.metas
	} else {
		metas = fq.regConsumeTx(p, polled)
	}
	if len(metas) == 0 {
		return false
	}
	// Copy only the inline segments; zero-copy external segments (the KV
	// store's object payloads) pass through as DMA references — the PCIe
	// device can fetch any host address.
	f.lines = f.lines[:0]
	for _, m := range metas {
		f.lines = mem.AppendLines(f.lines, m.addr, m.len)
	}
	a.GatherRead(p, f.lines)
	f.out = f.out[:0]
	for _, m := range metas {
		nb := bq.Port().Alloc(p, m.len)
		if nb == nil {
			continue
		}
		nb.Len, nb.Seq, nb.Born = m.len, m.seq, m.born
		nb.ExtAddr, nb.ExtLen = m.ext, m.extLen
		f.out = append(f.out, nb)
		if cfg.NICBufMgmt {
			fq.nicPort.Free(p, m.buf)
		}
	}
	f.lines = bufpool.Lines(f.lines[:0], f.out)
	a.ScatterWrite(p, f.lines)
	if !cfg.InlineSignal && !cfg.NICBufMgmt {
		fq.completeTx(p, len(metas))
	}
	sent := bq.TxBurst(p, f.out)
	if sent < len(f.out) {
		bq.Port().FreeBurst(p, f.out[sent:])
	}
	return true
}

// forwardRx forwards one burst from PCIe RX queue qi to its front UPI RX
// ring and reports whether it found any.
func (f *forwarder) forwardRx(p *sim.Proc, qi int) bool {
	fq := f.o.front.qs[qi]
	bq := f.o.back.qs[qi]
	got := bq.RxBurst(p, f.rx)
	if got == 0 {
		return false
	}
	f.lines = bufpool.Lines(f.lines[:0], f.rx[:got])
	f.a.GatherRead(p, f.lines) // DDIO: local LLC
	f.fwd = f.fwd[:0]
	for _, b := range f.rx[:got] {
		f.fwd = append(f.fwd, rxMeta{size: b.Len, seq: b.Seq, born: b.Born})
	}
	// Forward losslessly: applications depend on every accepted packet
	// arriving (backpressure, not drops).
	pollGap := f.o.front.sys.Platform().PollGap
	for pending := f.fwd; len(pending) > 0 && !f.o.stopped; {
		n := fq.rxEmit(p, pending)
		pending = pending[n:]
		if n == 0 {
			p.Sleep(pollGap * 8)
		}
	}
	bq.Release(p, f.rx[:got])
	return true
}
