package device

import (
	"fmt"
	"slices"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/mem"
	"ccnic/internal/pcie"
	"ccnic/internal/platform"
	"ccnic/internal/ring"
	"ccnic/internal/sim"
)

// PCIeNIC models a conventional PCIe NIC (Intel E810 or NVIDIA CX6) with the
// standard host interface of §2: descriptor rings in host memory, MMIO
// doorbells, DMA descriptor and payload fetches, DDIO completion writes, a
// device pipeline with a finite packet rate, and host-only buffer
// management. It loops TX packets back to the same queue's RX side, or
// injects synthetic ingress traffic.
type PCIeNIC struct {
	name string
	sys  *coherence.System
	nic  *platform.NICParams
	ep   *pcie.Endpoint
	pool *bufpool.Pool
	// The shared device pipeline (each direction-crossing of a packet
	// consumes half the per-packet service time, so a loopback packet
	// costs one full PerPacket) and per-direction data paths.
	pipe sim.Resource
	data [2]sim.Resource
	qs   []*pcieQueue
}

// service pushes one direction-crossing of a packet through the device
// pipeline and the direction's data path, returning when it emerges.
// Resources are always claimed at the current instant — claims with future
// start times would head-of-line-block other queues' present-time claims —
// and the result is lower-bounded by start (when the packet's data exists).
//
//ccnic:noalloc
func (d *PCIeNIC) service(start sim.Time, size int, dir int) sim.Time {
	now := d.sys.Kernel().Now()
	half := d.nic.PerPacket / 2
	out := now + d.pipe.Acquire(now, half) + half
	bytesTime := sim.Time(float64(size) / d.nic.DataBW * float64(sim.Nanosecond))
	if dataOut := now + d.data[dir].Acquire(now, bytesTime) + bytesTime; dataOut > out {
		out = dataOut
	}
	if start > out {
		out = start
	}
	return out
}

// rxDoorbellThresh is how many freed RX buffers accumulate before the
// driver bumps the RX tail register (DPDK's rx_free_thresh).
const rxDoorbellThresh = 32

// delivery is a packet queued inside the device for RX delivery.
type delivery struct {
	readyAt sim.Time
	size    int
	seq     uint64
	born    sim.Time
}

type pcieQueue struct {
	dev      *PCIeNIC
	idx      int
	host     *coherence.Agent
	hostPort *bufpool.Port
	mmio     *pcie.CoreMMIO

	txR, rxR *ring.Reg
	txDb     doorbell
	rxDb     doorbell

	txSeen      int // device's TX fetch position
	rxSeenNIC   int // device's blank-consumption position
	lastFetchAt sim.Time
	primed      bool
	rxFreed     int // frees since last RX doorbell

	// Completion visibility (DMA writes take OneWay).
	txDoneAt []sim.Time
	rxDoneAt []sim.Time

	// deliveries[dvHead:] is the RX engine's backlog, oldest first; the
	// array is reused once drained (pushDelivery, popDelivery).
	deliveries []delivery
	dvHead     int

	// Duplicate doorbells (armed fault plans only) the device still owes
	// a spurious descriptor fetch for.
	dbDup int

	in pacer

	// The engines' walks: where each resumes (fetch, deliver), whether
	// the TX engine's iteration found work, how many descriptors its fetch
	// takes, and the packet the RX engine delivers.
	fetchAt, deliverAt engStage
	busy               bool
	fetchN             int
	dv                 delivery
	// descLines is the TX engine's descriptor-line scratch, dvLines the RX
	// engine's payload-line scratch.
	descLines, dvLines []mem.Addr

	// blanks is the RX refill's buffer list (pPost), lent to whichever
	// driver call posts; drivers is the free list of driver calls' walks.
	blanks  sim.Scratch[*bufpool.Buf]
	drivers *driverWalk

	stopped bool
}

// NewPCIeNIC builds a PCIe NIC with one queue pair per host agent. The
// agents' socket is the NIC's local socket (descriptor rings and buffers
// live there; DDIO targets its LLC).
func NewPCIeNIC(sys *coherence.System, nic *platform.NICParams, hosts []*coherence.Agent) *PCIeNIC {
	if len(hosts) == 0 {
		panic("device: PCIe NIC needs at least one host agent")
	}
	d := &PCIeNIC{
		name: nic.Name,
		sys:  sys,
		nic:  nic,
		ep:   pcie.NewEndpoint(sys.Platform().PCIe),
	}
	home := hosts[0].Socket()
	d.pool = bufpool.New(bufpool.Config{
		Sys:      sys,
		Home:     home,
		BigCount: 2048 * len(hosts),
		BigSize:  4096,
		Shared:   false,
		Recycle:  true, // the software-only reuse PCIe drivers implement
	})
	const nDesc = 1024
	for i, h := range hosts {
		q := &pcieQueue{
			dev:      d,
			idx:      i,
			host:     h,
			hostPort: d.pool.Attach(h),
			mmio:     d.ep.NewCore(),
			txR:      ring.NewReg(sys, nDesc, home, home),
			rxR:      ring.NewReg(sys, nDesc, home, home),
			txDoneAt: make([]sim.Time, nDesc),
			rxDoneAt: make([]sim.Time, nDesc),
		}
		d.qs = append(d.qs, q)
	}
	return d
}

// Name returns the device name ("E810" or "CX6").
func (d *PCIeNIC) Name() string { return d.name }

// Kernel returns the device's shard affinity (its memory system's kernel).
func (d *PCIeNIC) Kernel() *sim.Kernel { return d.sys.Kernel() }

// NumQueues returns the queue count.
func (d *PCIeNIC) NumQueues() int { return len(d.qs) }

// Queue returns queue i's host handle.
func (d *PCIeNIC) Queue(i int) Queue { return d.qs[i] }

// Pool returns the host buffer pool.
func (d *PCIeNIC) Pool() *bufpool.Pool { return d.pool }

// Endpoint returns the PCIe endpoint (for tests and counters).
func (d *PCIeNIC) Endpoint() *pcie.Endpoint { return d.ep }

// SetIngress implements Injector.
func (d *PCIeNIC) SetIngress(i int, rate float64, gen func() int) {
	d.qs[i].in.set(rate, gen)
}

// TxCount implements Injector.
func (d *PCIeNIC) TxCount(i int) int64 { return d.qs[i].in.tx }

// Start spawns the device pipeline's engines, bodiless processes.
func (d *PCIeNIC) Start() {
	// Sync the PCIe endpoint with the system's fault injector: plans are
	// armed on the system between construction and Start.
	d.ep.SetFaults(d.sys.Faults())
	k := d.sys.Kernel()
	for _, q := range d.qs {
		k.SpawnSpin(fmt.Sprintf("%s.fetch%d", d.name, q.idx), q.fetch)
		k.SpawnSpin(fmt.Sprintf("%s.deliver%d", d.name, q.idx), q.deliver)
	}
}

// Stop makes device processes exit at their next iteration.
func (d *PCIeNIC) Stop() {
	for _, q := range d.qs {
		q.stopped = true
	}
}

// ---------- Host driver ----------

// TxBurst implements Queue: reclaim completions, write descriptors to host
// memory, ring the doorbell. The call's driver overhead is its one park;
// the rest runs as a walk (driverWalk.runPCIe) in its spin steps.
func (q *pcieQueue) TxBurst(p *sim.Proc, bufs []*bufpool.Buf) int {
	return q.call(pTxStart, bufs).park(p)
}

// RxBurst implements Queue, as TxBurst does.
func (q *pcieQueue) RxBurst(p *sim.Proc, out []*bufpool.Buf) int {
	return q.call(pRxStart, out).park(p)
}

// Release implements Queue: return consumed RX buffers to the pool (ring
// refill already happened in RxBurst), as TxBurst does. Consumes the
// buffers.
//
//ccnic:transfer
func (q *pcieQueue) Release(p *sim.Proc, bufs []*bufpool.Buf) {
	q.call(pFree, bufs).park(p)
}

// Port implements Queue.
//
//ccnic:noalloc
func (q *pcieQueue) Port() *bufpool.Port { return q.hostPort }

// call takes a driver walker for a TxBurst (pTxStart), RxBurst (pRxStart)
// or Release (pFree) of bufs on q, set to park on the call's driver
// overhead: its fixed per-burst and per-packet instruction costs.
//
//ccnic:noalloc
func (q *pcieQueue) call(stage drvStage, bufs []*bufpool.Buf) *driverWalk {
	w := driver(&q.drivers)
	w.pq, w.bufs, w.stage = q, bufs, stage
	n := sim.Time(len(bufs))
	w.overhead = n * 4 * sim.Nanosecond
	if stage == pTxStart {
		w.overhead = 15*sim.Nanosecond + n*8*sim.Nanosecond
	} else if stage == pRxStart {
		w.overhead = 10 * sim.Nanosecond
	}
	return w
}

// doorbell is the driver's view of one MMIO tail register: the tail value
// the device may observe, when that write reaches it (MMIO writes take
// OneWay), and when an armed fault plan dropped a later write (zero = none
// pending; the watchdog re-rings after dbWatchdogTimeout).
type doorbell struct {
	shadow  int
	visible sim.Time
	lostAt  sim.Time
}

// publish makes tail observable to the device after the MMIO propagation
// delay; the write conveys every outstanding descriptor, so no loss is
// pending any more.
//
//ccnic:noalloc
func (q *pcieQueue) publish(db *doorbell, tail int) {
	db.shadow = tail
	db.visible = q.dev.sys.Kernel().Now() + q.dev.ep.MMIOPropagation()
	db.lostAt = 0
}

// rung settles the doorbell write just issued for tail under armed fault
// draws: a dropped write never reaches the register (the watchdog
// re-rings), a duplicated one owes the device a spurious fetch.
//
//ccnic:noalloc
func (q *pcieQueue) rung(db *doorbell, tail int) {
	flt := q.dev.sys.Faults()
	if flt.DoorbellDropped() {
		if db.lostAt == 0 {
			db.lostAt = q.dev.sys.Kernel().Now()
		}
		return
	}
	if flt.DoorbellDuplicated() {
		q.dbDup++
	}
	q.publish(db, tail)
}

// dbWatchdogTimeout is how long the driver waits for the device to act on
// a rung doorbell before concluding it was lost and re-ringing. Lost
// doorbells only exist under an armed fault plan, so the watchdog is
// inert — a pair of integer compares — in fault-free runs.
const dbWatchdogTimeout = 3 * sim.Microsecond

// The PCIe driver's stages of a driverWalk (runPCIe).
const (
	// TxBurst.
	pTxStart   drvStage = iota + reclaim + 1 // charge second segments
	pTxReclaim                               // reclaim completed TX descriptors
	pTxPost                                  // post the packets
	pTxPosted                                // the Post has ended: ring the doorbell

	// RxBurst.
	pRxStart    // prime, then the watchdog
	pRxScan     // consume the completed descriptors, or poll
	pRxParse    // the Consume has ended: parse the descriptors
	pRxRefill   // post fresh blanks
	pRxRefilled // ring the doorbell past the free threshold

	// Release.
	pFree  // free the buffers
	pFreed // the free burst has ended

	// The subroutines.
	pPrime         // prime: post the RX queue's initial blanks
	pPrimed        // ring its first RX doorbell
	pWatch         // watch: re-ring dropped doorbells
	pWatchTx       // the TX doorbell's re-ring, if due
	pWatchRx       // the RX doorbell's re-ring, if due
	pRerung        // a re-ring has issued: settle it
	pPost          // post: allocate blanks
	pPostAllocated // post them to the RX ring
	pPosted        // the Post has ended
	pRung          // a doorbell write has issued: settle it
)

// runPCIe is run for a PCIe queue's driver call: TxBurst, RxBurst and
// Release once the call's overhead has elapsed, with the driver's
// bookkeeping passes as subroutines that return to a stage: the RX queue's
// initial fill (prime), the doorbell watchdog (watch), a blank refill
// (post) and the settling of a doorbell write (mmio, rerung).
//
//ccnic:noalloc
func (w *driverWalk) runPCIe() (sim.Time, bool) {
	q := w.pq
	for {
		var d sim.Time
		var ok bool
		now := q.dev.sys.Kernel().Now()
		switch w.stage {
		case drvDone:
			return 0, false

		case pTxStart:
			// Multi-segment packets cost extra descriptor/WQE construction
			// work in PCIe drivers (scatter-gather list setup).
			w.stage, w.watchRet = pPrime, pTxReclaim
			for w.j < len(w.bufs) {
				w.j++
				if w.bufs[w.j-1].ExtLen > 0 {
					w.stage = pTxStart
					d, ok = 25*sim.Nanosecond, true
					break
				}
			}
		case pTxReclaim:
			// Free TX buffers whose completion (DD) writebacks have
			// arrived via DDIO: reading them hits the LLC.
			r := q.txR
			done := 0
			for r.HeadIdx+done < r.TailIdx && r.Done(r.HeadIdx+done) && q.txDoneAt[(r.HeadIdx+done)%r.Size()] <= now {
				done++
			}
			w.stage = pTxPost
			if done > 0 {
				d, ok = w.c.ring.Reclaim(r, q.host, done, q.hostPort)
			}
		case pTxPost:
			// Descriptor writes hit local write-back memory.
			w.stage = pTxPosted
			d, ok = w.c.ring.RegPost(q.txR, q.host, w.bufs, nil)
		case pTxPosted:
			w.n, w.stage = w.c.ring.N(), drvDone
			if w.n == 0 {
				continue
			}
			// Doorbell. The CX6 writes descriptors (and the doorbell
			// record) over write-combining MMIO; the E810 writes a UC tail
			// register.
			var cost sim.Time
			if q.dev.nic.MMIODesc {
				cost = q.mmio.WCStream(now, w.n*ring.DescSize+8, q.dev.sys.Platform().PCIe.NTStoreBW)
			} else {
				cost = q.mmio.UCWrite(now, 4)
			}
			d, ok = w.mmio(&q.txDb, q.txR, cost, drvDone)

		case pRxStart:
			w.stage, w.watchRet = pPrime, pRxScan
		case pRxScan:
			r := q.rxR
			n := 0
			for n < len(w.bufs) && r.Done(r.HeadIdx+n) && q.rxDoneAt[(r.HeadIdx+n)%r.Size()] <= now {
				n++
			}
			if n == 0 {
				w.stage = drvDone
				d, ok = w.c.acc.Poll(q.host, r.DescAddr(r.HeadIdx), ring.DescSize)
				break
			}
			w.n, w.stage = n, pRxParse
			d, ok = w.c.ring.RegConsume(r, q.host, w.bufs[:n])
		case pRxParse:
			// Descriptor parse and mbuf initialization per received packet.
			w.stage = pRxRefill
			d, ok = sim.Time(w.n)*6*sim.Nanosecond, true
		case pRxRefill:
			// Refill the ring with fresh blanks from the pool (the rx_burst
			// refill path of real drivers), ringing the doorbell lazily.
			w.want, w.postRet, w.stage = w.n, pRxRefilled, pPost
		case pRxRefilled:
			w.stage = drvDone
			if q.rxFreed += w.n; q.rxFreed >= rxDoorbellThresh {
				q.rxFreed = 0
				d, ok = w.mmio(&q.rxDb, q.rxR, q.mmio.UCWrite(now, 4), drvDone)
			}

		case pFree:
			w.stage = pFreed
			d, ok = w.c.startBurst(q.hostPort.StartFree(w.bufs))
		case pFreed:
			w.c.burstEnd()
			w.stage = drvDone

		case pPrime:
			w.stage = pWatch
			if !q.primed {
				q.primed = true
				w.want, w.postRet, w.stage = q.rxR.Size()*3/4, pPrimed, pPost
			}
		case pPrimed:
			d, ok = w.mmio(&q.rxDb, q.rxR, q.mmio.UCWrite(now, 4), pWatch)

		case pWatch:
			// Re-ring doorbells that an armed fault plan dropped. Both
			// TxBurst and RxBurst watch, so that a closed-loop driver whose
			// in-flight window is full (and therefore stops posting TX
			// work) still recovers via its RX polling.
			w.stage = w.watchRet
			if q.txDb.lostAt != 0 || q.rxDb.lostAt != 0 {
				w.now, w.stage = now, pWatchTx
			}
		case pWatchTx, pWatchRx:
			db, r, next := &q.txDb, q.txR, pWatchRx
			if w.stage == pWatchRx {
				db, r, next = &q.rxDb, q.rxR, w.watchRet
			}
			// Re-ring once a dropped write has gone unanswered for
			// dbWatchdogTimeout and descriptors remain unseen.
			w.stage = next
			if db.lostAt != 0 && w.now-db.lostAt >= dbWatchdogTimeout && r.TailIdx > db.shadow {
				w.db, w.tail, w.ret, w.stage = db, r.TailIdx, next, pRerung
				d, ok = q.mmio.UCWrite(now, 4), true
			}
		case pRerung:
			// Lost again, the re-ring restarts the timer.
			w.stage = w.ret
			if flt := q.dev.sys.Faults(); flt.DoorbellDropped() {
				w.db.lostAt = now
			} else {
				q.publish(w.db, w.tail)
				flt.Stats().NoteRering()
			}

		case pPost:
			// Allocate up to want blanks, no more than fit, and post them
			// to the RX ring.
			want := min(w.want, q.rxR.Space())
			w.blanks = slices.Grow(q.blanks.Take(), want)[:want] //ccnic:alloc-ok grows to the ring's blank count once
			w.stage = pPostAllocated
			d, ok = w.c.startBurst(q.hostPort.StartAlloc(4096, w.blanks))
		case pPostAllocated:
			w.stage = pPosted
			d, ok = w.c.ring.RegPost(q.rxR, q.host, w.blanks[:w.c.burstEnd()], nil)
		case pPosted:
			q.blanks.Put(w.blanks)
			w.blanks, w.stage = nil, w.postRet

		case pRung:
			q.rung(w.db, w.dbRing.TailIdx)
			w.stage = w.ret
		//ccnic:default-ok runPCIe is sent only the PCIe driver's stages
		default:
		}
		if ok {
			return d, true
		}
	}
}

// mmio charges the doorbell write of cost to db, which settles for r's
// tail once it has issued (rung), then returns to ret.
//
//ccnic:noalloc
func (w *driverWalk) mmio(db *doorbell, r *ring.Reg, cost sim.Time, ret drvStage) (sim.Time, bool) {
	w.db, w.dbRing, w.ret, w.stage = db, r, ret, pRung
	return cost, true
}

// ---------- Device pipeline ----------

const (
	// maxBacklog bounds the RX engine's backlog of synthetic arrivals:
	// past it, arrivals wait at the MAC (fetch).
	maxBacklog = 256
	// ingressLag is how far the wire may run ahead of a full backlog:
	// arrivals more overdue are lost at the MAC (pacer.catchUp).
	ingressLag = 10 * sim.Microsecond
	// fetchBurst is the most TX descriptors one fetch takes.
	fetchBurst = 32
	// coalesceWindow is how long after a fetch the TX engine still treats
	// postings as one burst, and coalesceWait how long it then waits for
	// more of them (coalescing).
	coalesceWindow = 600 * sim.Nanosecond
	coalesceWait   = 120 * sim.Nanosecond
)

// txVisible reports whether the TX doorbell shows descriptors the engine
// has not fetched yet.
//
//ccnic:noalloc
func (q *pcieQueue) txVisible(now sim.Time) bool {
	return now >= q.txDb.visible && q.txSeen < q.txDb.shadow
}

// txPending is how many visible descriptors the next fetch takes.
//
//ccnic:noalloc
func (q *pcieQueue) txPending() int { return min(q.txDb.shadow-q.txSeen, fetchBurst) }

// coalescing reports whether the TX engine waits coalesceWait for more
// postings before fetching the visible descriptors: while a burst is in
// progress (a fetch completed within coalesceWindow), each DMA amortizes
// the roundtrip over more of them. Idle arrivals are fetched immediately,
// keeping the unloaded latency intact.
//
//ccnic:noalloc
func (q *pcieQueue) coalescing(now sim.Time) bool {
	return q.txPending() < q.dev.nic.DescBatch && now-q.lastFetchAt < coalesceWindow
}

// backlog is how many packets wait for the RX engine.
//
//ccnic:noalloc
func (q *pcieQueue) backlog() int { return len(q.deliveries) - q.dvHead }

// pushDelivery queues dv for the RX engine, sliding the backlog to the
// front of its array rather than growing a full one.
//
//ccnic:noalloc
func (q *pcieQueue) pushDelivery(dv delivery) {
	if q.dvHead > 0 && len(q.deliveries) == cap(q.deliveries) {
		q.deliveries = q.deliveries[:copy(q.deliveries, q.deliveries[q.dvHead:])]
		q.dvHead = 0
	}
	q.deliveries = append(q.deliveries, dv)
}

// popDelivery takes the oldest queued packet; the backlog must be nonempty.
//
//ccnic:noalloc
func (q *pcieQueue) popDelivery() delivery {
	dv := q.deliveries[q.dvHead]
	if q.dvHead++; q.dvHead == len(q.deliveries) {
		q.deliveries, q.dvHead = q.deliveries[:0], 0
	}
	return dv
}

// blankVisible reports whether the host has posted a blank the RX engine
// can see.
//
//ccnic:noalloc
func (q *pcieQueue) blankVisible(now sim.Time) bool {
	return q.rxSeenNIC < q.rxDb.shadow && now >= q.rxDb.visible
}

// The engines are bodiless processes (sim.Kernel.SpawnSpin): each is a
// step machine, its loop cut at its waits, that runs on from where its
// last wait ended up to its next wait, whose length it returns, all in
// one event. An idle engine's iteration is such a step too: it reads the
// queue, finds nothing to do and returns its wait, so a wait that idles
// costs one event and no coroutine switch.

// engStage is where a PCIe engine resumes.
type engStage uint8

const (
	engTop       engStage = iota // start an iteration
	fetchStalled                 // TX: the pipeline stall has elapsed
	fetchDescs                   // TX: the descriptor fetch has completed
	fetchIngress                 // TX: take the synthetic arrivals due
	dvReady                      // RX: the packet has cleared the pipeline
	dvStalled                    // RX: the pipeline stall has elapsed
	dvServed                     // RX: the RX leg's service has elapsed, or a blank wait
)

// fetch is the device's TX engine: it observes doorbells, DMA-reads
// descriptors and payloads, applies the pipeline service time, writes TX
// completions, and hands packets to the delivery engine. It also
// synthesizes ingress packets when configured. It runs on from q.fetchAt,
// and ends once the queue has stopped.
//
//ccnic:noalloc
func (q *pcieQueue) fetch() (sim.Time, bool) {
	d := q.dev
	flt := d.sys.Faults()
	for {
		now := d.sys.Kernel().Now()
		switch q.fetchAt {
		case engTop:
			if q.stopped {
				return 0, false
			}
			q.busy, q.fetchAt = false, fetchIngress
			// A duplicate doorbell costs the device one spurious
			// descriptor fetch; ring cursors bound what it can act on, so
			// that is all.
			if q.dbDup > 0 {
				q.dbDup--
				d.ep.DMAReadAsync(now, mem.LineSize)
				q.busy = true
			}
			if q.txVisible(now) {
				// Transient pipeline stall (armed fault plans only): the
				// engine pauses before serving the doorbell.
				q.busy, q.fetchAt = true, fetchStalled
				if stall := flt.PipelineStall(); stall > 0 {
					return stall, true
				}
			}
		case fetchStalled:
			if q.coalescing(now) {
				q.fetchAt = engTop
				return coalesceWait, true
			}
			q.fetchN, q.lastFetchAt = q.txPending(), now
			q.descLines = q.txR.LinesFor(q.descLines[:0], q.txSeen, q.fetchN)
			descDone := now
			if !d.nic.MMIODesc {
				descDone = d.ep.DMAReadAsync(now, len(q.descLines)*mem.LineSize)
				for _, l := range q.descLines {
					d.sys.DeviceReadLine(l)
				}
			}
			q.fetchAt = fetchDescs
			if descDone > now {
				return descDone - now, true
			}
		case fetchDescs:
			var lastReady sim.Time
			for i := 0; i < q.fetchN; i++ {
				b := q.txR.Get(q.txSeen + i)
				size := b.TotalLen()
				payloadDone := d.ep.DMAReadAsync(now, size)
				mem.Lines(b.Addr, b.Len, d.sys.DeviceReadLine)
				if b.ExtLen > 0 {
					mem.Lines(b.ExtAddr, b.ExtLen, d.sys.DeviceReadLine)
				}
				ready := d.service(payloadDone, size, 0) + d.nic.PipelineLat
				lastReady = max(lastReady, ready)
				q.in.tx++
				if q.in.gen == nil {
					q.pushDelivery(delivery{readyAt: ready, size: size, seq: b.Seq, born: b.Born})
				}
			}
			// TX completion writeback for the batch (DDIO). An armed
			// DMA-delay fault pushes the completion later in time; the
			// data is intact and ordering is preserved because the whole
			// batch shares one doneAt.
			doneAt := d.ep.DMAWriteAsync(lastReady, len(q.descLines)*mem.LineSize) + flt.DMADelay()
			for i := 0; i < q.fetchN; i++ {
				idx := q.txSeen + i
				q.txR.SetDone(idx)
				q.txDoneAt[idx%q.txR.Size()] = doneAt
			}
			for _, l := range q.descLines {
				d.sys.DeviceWriteLine(l, q.host.Socket())
			}
			q.txSeen += q.fetchN
			q.fetchAt = fetchIngress
		case fetchIngress:
			// Synthetic ingress. The wire is a finite-rate source: when
			// the device pipeline is backlogged, arrivals queue at the MAC
			// rather than reserving unbounded pipeline slots.
			for n := min(fetchBurst, maxBacklog-q.backlog()); n > 0; n-- {
				size, due := q.in.offer(now)
				if !due {
					break
				}
				q.pushDelivery(delivery{readyAt: now + d.nic.PipelineLat, size: size, born: now})
				q.in.took()
				q.busy = true
			}
			if q.backlog() >= maxBacklog {
				q.in.catchUp(now, ingressLag)
			}
			q.fetchAt = engTop
			if !q.busy {
				return d.sys.Platform().PollGap, true
			}
		//ccnic:default-ok fetch is sent only the TX engine's stages
		default:
		}
	}
}

// deliver is the device's RX engine: it waits for packets to clear the
// pipeline, consumes host-posted blanks, and DMA-writes payloads and
// completion descriptors (landing in the host LLC via DDIO). It runs on
// from q.deliverAt, and ends once the queue has stopped.
//
//ccnic:noalloc
func (q *pcieQueue) deliver() (sim.Time, bool) {
	d := q.dev
	pollGap := d.sys.Platform().PollGap
	for {
		now := d.sys.Kernel().Now()
		switch q.deliverAt {
		case engTop:
			if q.stopped {
				return 0, false
			}
			if q.backlog() == 0 {
				return pollGap, true
			}
			q.dv, q.deliverAt = q.popDelivery(), dvReady
			if q.dv.readyAt > now {
				return q.dv.readyAt - now, true
			}
		case dvReady:
			q.deliverAt = dvStalled
			if stall := d.sys.Faults().PipelineStall(); stall > 0 {
				return stall, true
			}
		case dvStalled:
			// The RX leg's share of the device pipeline and data path.
			q.deliverAt = dvServed
			if out := d.service(now, q.dv.size, 1); out > now {
				return out - now, true
			}
		case dvServed:
			// Wait for a blank (the host may need to catch up on reposts).
			if !q.blankVisible(now) {
				if q.stopped {
					return 0, false
				}
				return 4 * pollGap, true
			}
			q.deliverAt = engTop
			idx := q.rxSeenNIC
			q.rxSeenNIC++
			// Amortized RX descriptor fetch: one DMA read per line of
			// blanks (the device prefetches descriptors ahead).
			if idx%ring.SlotsPerLine == 0 {
				d.ep.DMAReadAsync(now, mem.LineSize)
			}
			b, sock := q.rxR.Get(idx), q.host.Socket()
			b.Len, b.Seq, b.Born = q.dv.size, q.dv.seq, q.dv.born
			payloadAt := d.ep.DMAWriteAsync(now, q.dv.size)
			q.dvLines = mem.AppendLines(q.dvLines[:0], b.Addr, q.dv.size)
			for _, l := range q.dvLines {
				d.sys.DeviceWriteLine(l, sock)
			}
			descAt := d.ep.DMAWriteAsync(now, ring.DescSize)
			d.sys.DeviceWriteLine(mem.LineOf(q.rxR.DescAddr(idx)), sock)
			q.rxR.SetDone(idx)
			// Delayed RX completion under an armed DMA-delay fault. The
			// rxDoneAt prefix the driver consumes stays in-order because
			// RxBurst stops at the first not-yet-visible completion.
			q.rxDoneAt[idx%q.rxR.Size()] = max(payloadAt, descAt) + d.sys.Faults().DMADelay()
		//ccnic:default-ok deliver is sent only the RX engine's stages
		default:
		}
	}
}
