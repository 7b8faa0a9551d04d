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
	// descLines is the TX engine's descriptor-line scratch (fetchMain).
	descLines []mem.Addr
	// blanks is the RX refill's buffer list (postBlanks), lent to
	// whichever driver call posts.
	blanks sim.Scratch[*bufpool.Buf]

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

// Start spawns the device pipeline processes.
func (d *PCIeNIC) Start() {
	// Sync the PCIe endpoint with the system's fault injector: plans are
	// armed on the system between construction and Start.
	d.ep.SetFaults(d.sys.Faults())
	for _, q := range d.qs {
		q := q
		d.sys.Kernel().Spawn(fmt.Sprintf("%s.fetch%d", d.name, q.idx), q.fetchMain)
		d.sys.Kernel().Spawn(fmt.Sprintf("%s.deliver%d", d.name, q.idx), q.deliverMain)
	}
}

// Stop makes device processes exit at their next iteration.
func (d *PCIeNIC) Stop() {
	for _, q := range d.qs {
		q.stopped = true
	}
}

// ---------- Host driver ----------

// driverOverhead charges fixed per-burst and per-packet instruction costs.
func driverOverhead(p *sim.Proc, a *coherence.Agent, pkts int, perBurst, perPkt sim.Time) {
	a.Exec(p, perBurst+sim.Time(pkts)*perPkt)
}

// TxBurst implements Queue: reclaim completions, write descriptors to host
// memory, ring the doorbell.
func (q *pcieQueue) TxBurst(p *sim.Proc, bufs []*bufpool.Buf) int {
	driverOverhead(p, q.host, len(bufs), 15*sim.Nanosecond, 8*sim.Nanosecond)
	// Multi-segment packets cost extra descriptor/WQE construction work
	// in PCIe drivers (scatter-gather list setup).
	for _, b := range bufs {
		if b.ExtLen > 0 {
			q.host.Exec(p, 25*sim.Nanosecond)
		}
	}
	q.primeRx(p)
	q.watchdog(p)
	q.reclaimTx(p)
	// Descriptor writes hit local write-back memory.
	n := q.txR.Post(p, q.host, bufs)
	if n == 0 {
		return 0
	}
	// Doorbell. The CX6 writes descriptors (and the doorbell record)
	// over write-combining MMIO; the E810 writes a UC tail register.
	if q.dev.nic.MMIODesc {
		q.mmio.WCStreamWrite(p, n*ring.DescSize+8, q.dev.sys.Platform().PCIe.NTStoreBW)
	} else {
		q.mmio.UCWrite(p, 4)
	}
	q.rung(p, &q.txDb, q.txR.TailIdx)
	return n
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
func (q *pcieQueue) publish(p *sim.Proc, db *doorbell, tail int) {
	db.shadow = tail
	db.visible = p.Now() + q.dev.ep.MMIOPropagation()
	db.lostAt = 0
}

// rung settles the doorbell write just issued for tail under armed fault
// draws: a dropped write never reaches the register (the watchdog
// re-rings), a duplicated one owes the device a spurious fetch.
func (q *pcieQueue) rung(p *sim.Proc, db *doorbell, tail int) {
	flt := q.dev.sys.Faults()
	if flt.DoorbellDropped() {
		if db.lostAt == 0 {
			db.lostAt = p.Now()
		}
		return
	}
	if flt.DoorbellDuplicated() {
		q.dbDup++
	}
	q.publish(p, db, tail)
}

// dbWatchdogTimeout is how long the driver waits for the device to act on
// a rung doorbell before concluding it was lost and re-ringing. Lost
// doorbells only exist under an armed fault plan, so the watchdog is
// inert — a pair of integer compares — in fault-free runs.
const dbWatchdogTimeout = 3 * sim.Microsecond

// watchdog re-rings doorbells that an armed fault plan dropped. Called
// from both TxBurst and RxBurst so that a closed-loop driver whose
// in-flight window is full (and therefore stops posting TX work) still
// recovers via its RX polling.
func (q *pcieQueue) watchdog(p *sim.Proc) {
	if q.txDb.lostAt == 0 && q.rxDb.lostAt == 0 {
		return
	}
	now := p.Now()
	q.rering(p, &q.txDb, q.txR.TailIdx, now)
	q.rering(p, &q.rxDb, q.rxR.TailIdx, now)
}

// rering writes db's tail register again once a dropped write has gone
// unanswered for dbWatchdogTimeout as of now and descriptors remain unseen.
func (q *pcieQueue) rering(p *sim.Proc, db *doorbell, tail int, now sim.Time) {
	if db.lostAt == 0 || now-db.lostAt < dbWatchdogTimeout || tail <= db.shadow {
		return
	}
	q.mmio.UCWrite(p, 4)
	flt := q.dev.sys.Faults()
	if flt.DoorbellDropped() {
		db.lostAt = p.Now() // lost again; restart the timer
		return
	}
	q.publish(p, db, tail)
	flt.Stats().NoteRering()
}

// reclaimTx frees TX buffers whose completion (DD) writebacks have arrived.
// Completion descriptors arrived via DDIO: reading them hits the LLC.
func (q *pcieQueue) reclaimTx(p *sim.Proc) {
	r := q.txR
	now := p.Now()
	done := 0
	for r.HeadIdx+done < r.TailIdx && r.Done(r.HeadIdx+done) && q.txDoneAt[(r.HeadIdx+done)%r.Size()] <= now {
		done++
	}
	if done > 0 {
		r.Reclaim(p, q.host, done, q.hostPort)
	}
}

// RxBurst implements Queue.
func (q *pcieQueue) RxBurst(p *sim.Proc, out []*bufpool.Buf) int {
	driverOverhead(p, q.host, 0, 10*sim.Nanosecond, 0)
	q.primeRx(p)
	q.watchdog(p)
	r := q.rxR
	now := p.Now()
	n := 0
	for n < len(out) && r.Done(r.HeadIdx+n) && q.rxDoneAt[(r.HeadIdx+n)%r.Size()] <= now {
		n++
	}
	if n == 0 {
		q.host.Poll(p, r.DescAddr(r.HeadIdx), ring.DescSize)
		return 0
	}
	r.Consume(p, q.host, out[:n])
	// Descriptor parse and mbuf initialization per received packet.
	driverOverhead(p, q.host, n, 0, 6*sim.Nanosecond)
	// Refill the ring with fresh blanks from the pool (the rx_burst
	// refill path of real drivers), ringing the doorbell lazily.
	q.postBlanks(p, n)
	q.rxFreed += n
	if q.rxFreed >= rxDoorbellThresh {
		q.rxFreed = 0
		q.mmio.UCWrite(p, 4)
		q.rung(p, &q.rxDb, r.TailIdx)
	}
	return n
}

// Release implements Queue: return consumed RX buffers to the pool (ring
// refill already happened in RxBurst). Consumes the buffers.
//
//ccnic:transfer
func (q *pcieQueue) Release(p *sim.Proc, bufs []*bufpool.Buf) {
	driverOverhead(p, q.host, len(bufs), 0, 4*sim.Nanosecond)
	q.hostPort.FreeBurst(p, bufs)
}

// Port implements Queue.
func (q *pcieQueue) Port() *bufpool.Port { return q.hostPort }

// postBlanks allocates up to n blanks (no more than fit) and posts them to
// the RX ring.
func (q *pcieQueue) postBlanks(p *sim.Proc, n int) {
	want := min(n, q.rxR.Space())
	blanks := slices.Grow(q.blanks.Take(), want)[:want]
	q.rxR.Post(p, q.host, blanks[:q.hostPort.AllocBurst(p, 4096, blanks)])
	q.blanks.Put(blanks)
}

// primeRx posts the initial blank set and rings the first RX doorbell.
func (q *pcieQueue) primeRx(p *sim.Proc) {
	if q.primed {
		return
	}
	q.primed = true
	q.postBlanks(p, q.rxR.Size()*3/4)
	q.mmio.UCWrite(p, 4)
	q.rung(p, &q.rxDb, q.rxR.TailIdx)
}

// ---------- Device pipeline ----------

const (
	// maxBacklog bounds the RX engine's backlog of synthetic arrivals:
	// past it, arrivals wait at the MAC (fetchMain).
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
func (q *pcieQueue) txVisible(now sim.Time) bool {
	return now >= q.txDb.visible && q.txSeen < q.txDb.shadow
}

// txPending is how many visible descriptors the next fetch takes.
func (q *pcieQueue) txPending() int { return min(q.txDb.shadow-q.txSeen, fetchBurst) }

// coalescing reports whether the TX engine waits coalesceWait for more
// postings before fetching the visible descriptors: while a burst is in
// progress (a fetch completed within coalesceWindow), each DMA amortizes
// the roundtrip over more of them. Idle arrivals are fetched immediately,
// keeping the unloaded latency intact.
func (q *pcieQueue) coalescing(now sim.Time) bool {
	return q.txPending() < q.dev.nic.DescBatch && now-q.lastFetchAt < coalesceWindow
}

// backlog is how many packets wait for the RX engine.
func (q *pcieQueue) backlog() int { return len(q.deliveries) - q.dvHead }

// pushDelivery queues dv for the RX engine, sliding the backlog to the
// front of its array rather than growing a full one.
func (q *pcieQueue) pushDelivery(dv delivery) {
	if q.dvHead > 0 && len(q.deliveries) == cap(q.deliveries) {
		q.deliveries = q.deliveries[:copy(q.deliveries, q.deliveries[q.dvHead:])]
		q.dvHead = 0
	}
	q.deliveries = append(q.deliveries, dv)
}

// popDelivery takes the oldest queued packet; the backlog must be nonempty.
func (q *pcieQueue) popDelivery() delivery {
	dv := q.deliveries[q.dvHead]
	if q.dvHead++; q.dvHead == len(q.deliveries) {
		q.deliveries, q.dvHead = q.deliveries[:0], 0
	}
	return dv
}

// blankVisible reports whether the host has posted a blank the RX engine
// can see.
func (q *pcieQueue) blankVisible(now sim.Time) bool {
	return q.rxSeenNIC < q.rxDb.shadow && now >= q.rxDb.visible
}

// The engines' idle waits are spin steps (sim.Proc.Spin, DESIGN §7): at
// each wake the scheduler runs the step instead of resuming the engine. A
// step returns the wait the engine's next iteration would sleep, and
// declines, so the engine resumes and runs that iteration itself, whenever
// the iteration could do anything else. Only fetchStep writes state, and
// only the field its iteration would write.

// fetchStep is fetchMain's step. Its iteration sleeps coalesceWait when TX
// work is visible but coalescing, and the poll gap otherwise. It declines
// on a stopped queue, a duplicate doorbell owed, visible TX work when a
// fault plan is armed (PipelineStall would draw) or the coalescing window
// has closed, or, while the backlog has room, an ingress arrival due. At a
// full backlog the iteration takes no arrival and only trims the wire's
// lag, so the step trims it (catchUp) and sleeps the poll gap.
func (q *pcieQueue) fetchStep() (sim.Time, bool) {
	d := q.dev
	now := d.sys.Kernel().Now()
	if q.stopped || q.dbDup > 0 {
		return 0, false
	}
	if q.txVisible(now) {
		if d.sys.Faults() != nil || !q.coalescing(now) {
			return 0, false
		}
		return coalesceWait, true
	}
	if q.backlog() >= maxBacklog {
		q.in.catchUp(now, ingressLag)
	} else if q.in.due(now) {
		return 0, false
	}
	return d.sys.Platform().PollGap, true
}

// deliverStep is deliverMain's step while its backlog is empty: it
// declines on a stopped queue or a queued delivery.
func (q *pcieQueue) deliverStep() (sim.Time, bool) {
	if q.stopped || q.backlog() > 0 {
		return 0, false
	}
	return q.dev.sys.Platform().PollGap, true
}

// blankStep is deliverMain's step while it waits for a blank: it declines
// on a stopped queue or a visible blank.
func (q *pcieQueue) blankStep() (sim.Time, bool) {
	if q.stopped || q.blankVisible(q.dev.sys.Kernel().Now()) {
		return 0, false
	}
	return 4 * q.dev.sys.Platform().PollGap, true
}

// fetchMain is the device's TX engine: it observes doorbells, DMA-reads
// descriptors and payloads, applies the pipeline service time, writes TX
// completions, and hands packets to the delivery engine. It also
// synthesizes ingress packets when configured.
func (q *pcieQueue) fetchMain(p *sim.Proc) {
	d := q.dev
	pollGap := d.sys.Platform().PollGap
	flt := d.sys.Faults()
	step := q.fetchStep
	for !q.stopped {
		busy := false
		now := p.Now()

		// A duplicate doorbell costs the device one spurious descriptor
		// fetch; ring cursors bound what it can act on, so that is all.
		if q.dbDup > 0 {
			q.dbDup--
			d.ep.DMAReadAsync(now, mem.LineSize)
			busy = true
		}

		// TX fetch.
		if q.txVisible(now) {
			busy = true
			// Transient pipeline stall (armed fault plans only): the
			// engine pauses before serving the doorbell.
			if stall := flt.PipelineStall(); stall > 0 {
				p.Sleep(stall)
				now = p.Now()
			}
			if q.coalescing(now) {
				p.Spin(coalesceWait, step)
				continue
			}
			n := q.txPending()
			q.lastFetchAt = now
			q.descLines = q.txR.LinesFor(q.descLines[:0], q.txSeen, n)
			lines := q.descLines
			descDone := now
			if !d.nic.MMIODesc {
				descDone = d.ep.DMAReadAsync(now, len(lines)*mem.LineSize)
				for _, l := range lines {
					d.sys.DeviceReadLine(l)
				}
			}
			if descDone > p.Now() {
				p.Sleep(descDone - p.Now())
			}
			var lastReady sim.Time
			for i := 0; i < n; i++ {
				idx := q.txSeen + i
				b := q.txR.Get(idx)
				size, seq, born := b.TotalLen(), b.Seq, b.Born
				payloadDone := d.ep.DMAReadAsync(p.Now(), size)
				mem.Lines(b.Addr, b.Len, d.sys.DeviceReadLine)
				if b.ExtLen > 0 {
					mem.Lines(b.ExtAddr, b.ExtLen, d.sys.DeviceReadLine)
				}
				ready := d.service(payloadDone, size, 0) + d.nic.PipelineLat
				if ready > lastReady {
					lastReady = ready
				}
				q.in.tx++
				if q.in.gen == nil {
					q.pushDelivery(delivery{readyAt: ready, size: size, seq: seq, born: born})
				}
			}
			// TX completion writeback for the batch (DDIO). An armed
			// DMA-delay fault pushes the completion later in time;
			// the data is intact and ordering is preserved because the
			// whole batch shares one doneAt.
			doneAt := d.ep.DMAWriteAsync(lastReady, len(lines)*mem.LineSize) + flt.DMADelay()
			for i := 0; i < n; i++ {
				idx := q.txSeen + i
				q.txR.SetDone(idx)
				q.txDoneAt[idx%q.txR.Size()] = doneAt
			}
			for _, l := range lines {
				d.sys.DeviceWriteLine(l, q.host.Socket())
			}
			q.txSeen += n
		}

		// Synthetic ingress. The wire is a finite-rate source: when the
		// device pipeline is backlogged, arrivals queue at the MAC
		// rather than reserving unbounded pipeline slots.
		busy = q.in.arrive(p, min(fetchBurst, maxBacklog-q.backlog()), func(size int) bool {
			q.pushDelivery(delivery{readyAt: p.Now() + d.nic.PipelineLat, size: size, born: p.Now()})
			return true
		}) > 0 || busy
		if q.backlog() >= maxBacklog {
			q.in.catchUp(p.Now(), ingressLag)
		}

		if !busy {
			p.Spin(pollGap, step)
		}
	}
}

// deliverMain is the device's RX engine: it waits for packets to clear the
// pipeline, consumes host-posted blanks, and DMA-writes payloads and
// completion descriptors (landing in the host LLC via DDIO).
func (q *pcieQueue) deliverMain(p *sim.Proc) {
	d := q.dev
	pollGap := d.sys.Platform().PollGap
	flt := d.sys.Faults()
	idle, blank := q.deliverStep, q.blankStep
	for !q.stopped {
		if q.backlog() == 0 {
			p.Spin(pollGap, idle)
			continue
		}
		dv := q.popDelivery()
		if dv.readyAt > p.Now() {
			p.Sleep(dv.readyAt - p.Now())
		}
		if stall := flt.PipelineStall(); stall > 0 {
			p.Sleep(stall)
		}
		// The RX leg's share of the device pipeline and data path.
		if out := d.service(p.Now(), dv.size, 1); out > p.Now() {
			p.Sleep(out - p.Now())
		}
		// Wait for a blank (the host may need to catch up on reposts).
		for !q.blankVisible(p.Now()) {
			if q.stopped {
				return
			}
			p.Spin(pollGap*4, blank)
		}
		idx := q.rxSeenNIC
		q.rxSeenNIC++
		// Amortized RX descriptor fetch: one DMA read per line of
		// blanks (the device prefetches descriptors ahead).
		if idx%ring.SlotsPerLine == 0 {
			d.ep.DMAReadAsync(p.Now(), mem.LineSize)
		}
		b := q.rxR.Get(idx)
		b.Len, b.Seq, b.Born = dv.size, dv.seq, dv.born
		payloadAt := d.ep.DMAWriteAsync(p.Now(), dv.size)
		mem.Lines(b.Addr, dv.size, func(l mem.Addr) {
			d.sys.DeviceWriteLine(l, q.host.Socket())
		})
		descAt := d.ep.DMAWriteAsync(p.Now(), ring.DescSize)
		d.sys.DeviceWriteLine(mem.LineOf(q.rxR.DescAddr(idx)), q.host.Socket())
		q.rxR.SetDone(idx)
		at := payloadAt
		if descAt > at {
			at = descAt
		}
		// Delayed RX completion under an armed DMA-delay fault. The
		// rxDoneAt prefix the driver consumes stays in-order because
		// RxBurst stops at the first not-yet-visible completion.
		at += flt.DMADelay()
		q.rxDoneAt[idx%q.rxR.Size()] = at
	}
}
