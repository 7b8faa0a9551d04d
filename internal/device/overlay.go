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
// has any, as a bodiless process (forwarder.step). Queue i's TX task is
// task i and its RX task task nq+i, dealt round-robin, so extra threads (up
// to two per queue) add forwarding capacity.
func (o *Overlay) startThread(t int) {
	nq, nt := o.front.NumQueues(), len(o.threads)
	a := o.threads[t]
	f := &forwarder{o: o, a: a, rx: make([]*bufpool.Buf, o.front.cfg.NICBurst)}
	for task := t; task < 2*nq; task += nt {
		if task < nq {
			f.txTasks = append(f.txTasks, task)
		} else {
			f.rxTasks = append(f.rxTasks, task-nq)
		}
	}
	if len(f.txTasks) == 0 && len(f.rxTasks) == 0 {
		return
	}
	o.front.sys.Kernel().SpawnSpin(fmt.Sprintf("overlay%d", t), f.step)
}

// Stop halts overlay threads and the PCIe device.
func (o *Overlay) Stop() {
	o.stopped = true
	o.back.Stop()
}

// forwarder is one overlay thread as a walk (see charge): a bodiless
// process whose step runs its polling loop, cut at its charges. Its own
// charges are coherent accesses and buffer-pool bursts; the front queue's
// NIC-side pieces (nicWalk's regConsumeTx, completeTx and rxEmit) and the
// back queue's driver calls (driverWalk) run as nested walks, entered at
// their first charge and advanced until they end, in the events a process
// calling them would have run them in.
//
// A queue's TX and RX tasks may run on different threads, so the thread
// builds its lists in its own scratch; of the queue's state it touches the
// TX path's (walk, txBufs, txMetas) only from the queue's TX task, and the
// RX path's (rxWalk) only from its RX task.
type forwarder struct {
	o     *Overlay
	a     *coherence.Agent
	stage fwdStage
	c     charge

	// The thread's TX and RX tasks (front queue indexes).
	txTasks, rxTasks []int

	// sub is the nested walk in flight, drv the driver call among them.
	sub func() (sim.Time, bool)
	drv *driverWalk

	// The round's next task and whether any found work; the task in
	// flight: its queue, whether it found work and the stage it returns
	// to.
	task  int
	busy  bool
	qi    int
	found bool
	ret   fwdStage

	// A TX task's consumed packets, the next it copies and the buffer a
	// burst of one allocates or frees; an RX task's received count and the
	// packets it has still to deliver. The rest is per-burst scratch.
	metas   []pktMeta
	i       int
	one     [1]*bufpool.Buf
	got     int
	pending []rxMeta
	rx, out []*bufpool.Buf
	lines   []mem.Addr
	fwd     []rxMeta
}

// fwdStage is where a forwarder resumes.
type fwdStage uint8

const (
	// The thread's polling loop.
	fwRound    fwdStage = iota // start a round over the tasks
	fwTask                     // forward the next task's burst, or idle
	fwTaskDone                 // that task has been served

	// A TX task: front TX ring to PCIe TX queue.
	fwTx          // consume the front TX ring
	fwTxConsumed  // the inline Consume has ended
	fwTxRead      // read the payloads
	fwTxAlloc     // allocate the next back buffer, or write the copies
	fwTxAllocated // the allocation has ended
	fwTxFreed     // NIC-managed: the front buffer's free has ended
	fwTxWritten   // the copies are written: complete the descriptors
	fwTxSend      // the back queue's TxBurst
	fwTxSent      // free what it did not take
	fwTxFreedOut  // that free burst has ended

	// An RX task: PCIe RX queue to front RX ring.
	fwRx         // the back queue's RxBurst
	fwRxGot      // read what it received
	fwRxRead     // the gather has completed
	fwRxEmit     // deliver the rest to the front RX ring
	fwRxEmitted  // that delivery has ended
	fwRxReleased // the back queue's Release has ended
)

// step is the forwarder's spin step: it completes what is in flight, a
// nested walk's charge or its own, and runs the thread on to its next
// charge.
//
//ccnic:noalloc
func (f *forwarder) step() (sim.Time, bool) {
	if f.sub != nil {
		if d, more := f.sub(); more {
			return d, true
		}
		f.sub = nil
	} else if d, more := f.c.advance(); more {
		return d, true
	}
	return f.run()
}

// call enters driver call w as the nested walk in flight: its overhead is
// its first charge.
//
//ccnic:noalloc
func (f *forwarder) call(w *driverWalk) (sim.Time, bool) {
	f.drv, f.sub = w, w.step
	return w.overhead, true
}

// run runs the thread on from f.stage, once the charge before it has
// completed, up to its next charge, or to its end once the overlay stops.
//
//ccnic:noalloc
func (f *forwarder) run() (sim.Time, bool) {
	front := f.o.front
	cfg := &front.cfg
	pollGap := front.sys.Platform().PollGap
	for {
		var d sim.Time
		var ok bool
		fq, bq := front.qs[f.qi], f.o.back.qs[f.qi]
		switch f.stage {
		case fwRound:
			if f.o.stopped {
				return 0, false
			}
			f.task, f.busy, f.stage = 0, false, fwTask
		case fwTask:
			f.ret = fwTaskDone
			switch t, ntx := f.task, len(f.txTasks); {
			case t < ntx:
				f.qi, f.stage = f.txTasks[t], fwTx
			case t < ntx+len(f.rxTasks):
				f.qi, f.stage = f.rxTasks[t-ntx], fwRx
			default:
				f.stage = fwRound
				if !f.busy {
					d, ok = pollGap, true
				}
			}
		case fwTaskDone:
			f.busy = f.found || f.busy
			f.task++
			f.stage = fwTask

		case fwTx:
			if cfg.InlineSignal {
				f.stage = fwTxConsumed
				d, ok = f.c.ring.Consume(fq.txI, f.a, fq.txBufs)
				break
			}
			f.stage, f.sub = fwTxRead, fq.walk.step
			d, ok = fq.walk.regConsumeTx()
		case fwTxConsumed:
			fq.txMetas = snapshot(fq.txMetas[:0], fq.txBufs[:f.c.ring.N()], cfg.NICBufMgmt)
			f.metas, f.stage = fq.txMetas, fwTxRead
		case fwTxRead:
			if !cfg.InlineSignal {
				f.metas = fq.walk.metas
			}
			f.found, f.stage = len(f.metas) > 0, f.ret
			if !f.found {
				continue
			}
			// Copy only the inline segments; zero-copy external segments
			// (the KV store's object payloads) pass through as DMA
			// references — the PCIe device can fetch any host address.
			f.lines = f.lines[:0]
			for _, m := range f.metas {
				f.lines = mem.AppendLines(f.lines, m.addr, m.len)
			}
			f.i, f.out, f.stage = 0, f.out[:0], fwTxAlloc
			d, ok = f.c.acc.Gather(f.a, f.lines, false)
		case fwTxAlloc:
			if f.i == len(f.metas) {
				f.lines = bufpool.Lines(f.lines[:0], f.out)
				f.stage = fwTxWritten
				d, ok = f.c.acc.Gather(f.a, f.lines, true)
				break
			}
			f.stage = fwTxAllocated
			d, ok = f.c.startBurst(bq.Port().StartAlloc(f.metas[f.i].len, f.one[:]))
		case fwTxAllocated:
			m := &f.metas[f.i]
			if f.c.burstEnd() == 1 {
				nb := f.one[0]
				nb.Len, nb.Seq, nb.Born = m.len, m.seq, m.born
				nb.ExtAddr, nb.ExtLen = m.ext, m.extLen
				f.out = append(f.out, nb)
			}
			f.i++
			f.one[0], f.stage = nil, fwTxAlloc
			if cfg.NICBufMgmt {
				// The front buffer returns to the pool whether or not the
				// back pool had a buffer for its copy.
				f.one[0], f.stage = m.buf, fwTxFreed
				d, ok = f.c.startBurst(fq.nicPort.StartFree(f.one[:]))
			}
		case fwTxFreed:
			f.c.burstEnd()
			f.one[0], f.stage = nil, fwTxAlloc
		case fwTxWritten:
			f.stage = fwTxSend
			if !cfg.InlineSignal && !cfg.NICBufMgmt {
				f.sub = fq.walk.step
				d, ok = fq.walk.completeTx(len(f.metas))
			}
		case fwTxSend:
			f.stage = fwTxSent
			d, ok = f.call(bq.call(pTxStart, f.out))
		case fwTxSent:
			f.stage = f.ret
			if sent := f.drv.end(); sent < len(f.out) {
				f.stage = fwTxFreedOut
				d, ok = f.c.startBurst(bq.Port().StartFree(f.out[sent:]))
			}
		case fwTxFreedOut:
			f.c.burstEnd()
			f.stage = f.ret

		case fwRx:
			f.stage = fwRxGot
			d, ok = f.call(bq.call(pRxStart, f.rx))
		case fwRxGot:
			f.got = f.drv.end()
			f.found, f.stage = f.got > 0, f.ret
			if !f.found {
				continue
			}
			f.lines = bufpool.Lines(f.lines[:0], f.rx[:f.got])
			f.stage = fwRxRead
			d, ok = f.c.acc.Gather(f.a, f.lines, false) // DDIO: local LLC
		case fwRxRead:
			f.fwd = f.fwd[:0]
			for _, b := range f.rx[:f.got] {
				f.fwd = append(f.fwd, rxMeta{size: b.Len, seq: b.Seq, born: b.Born})
			}
			f.pending, f.stage = f.fwd, fwRxEmit
		case fwRxEmit:
			// Forward losslessly: applications depend on every accepted
			// packet arriving (backpressure, not drops).
			if len(f.pending) > 0 && !f.o.stopped {
				f.stage, f.sub = fwRxEmitted, fq.rxWalk.step
				d, ok = fq.rxWalk.rxEmit(f.pending)
				break
			}
			f.stage = fwRxReleased
			d, ok = f.call(bq.call(pFree, f.rx[:f.got]))
		case fwRxEmitted:
			n := fq.rxWalk.posted
			f.pending, f.stage = f.pending[n:], fwRxEmit
			if n == 0 {
				d, ok = pollGap*8, true
			}
		case fwRxReleased:
			f.drv.end()
			f.stage = f.ret
		}
		if ok {
			return d, true
		}
		f.sub = nil // a nested walk started here ended at once
	}
}
