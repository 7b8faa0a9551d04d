package device

import (
	"fmt"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/mem"
	"ccnic/internal/ring"
	"ccnic/internal/sim"
)

// UPIConfig selects the coherent interface's design point. The zero value is
// not valid; start from CCNICConfig or UnoptConfig and toggle features.
type UPIConfig struct {
	// Layout is the descriptor arrangement for inline-signaled rings
	// (Fig 14b); ignored when InlineSignal is false.
	Layout ring.Layout
	// InlineSignal embeds the ready signal in the descriptor line (§3.2);
	// false uses external head/tail register lines (Fig 14a "Reg").
	InlineSignal bool
	// NICBufMgmt lets the NIC allocate RX buffers and free TX buffers
	// via the shared pool (§3.4); false reverts to host-only management
	// with blank-buffer preposting and completion reclaim.
	NICBufMgmt bool

	// Pool feature toggles (§3.3).
	SharedPool bool
	Recycle    bool
	SmallBufs  bool
	Sequential bool

	// NICCores shares NIC-side processing units across queues: queue i
	// is served by core i%NICCores, which runs on NIC agent
	// nics[i%NICCores] of NewUPI (0 = one core and agent per queue).
	// Models the paper's large-queue-count scalability discussion (§3.2).
	NICCores int
	// EventDriven replaces NIC-side descriptor polling with coherence
	// events: instead of scanning rings, the NIC reacts to the protocol
	// message generated by the host's descriptor write (§3.2's proposed
	// ASIC behavior). Only meaningful when queues share NIC cores.
	EventDriven bool

	// RingLines is each ring's length in cache lines (default 256).
	RingLines int
	// NICBurst is the NIC-side processing burst (default 32).
	NICBurst int
	// BigCount is the buffer pool's bigSize-byte buffer count (default
	// 2048 per queue).
	BigCount int
}

// bigSize is the byte size of a coherent NIC's pool buffers.
const bigSize = 4096

// CCNICConfig returns the fully optimized CC-NIC design point.
func CCNICConfig() UPIConfig {
	return UPIConfig{
		Layout:       ring.Grouped,
		InlineSignal: true,
		NICBufMgmt:   true,
		SharedPool:   true,
		Recycle:      true,
		SmallBufs:    true,
		Sequential:   false,
	}
}

// UnoptConfig returns the unoptimized-UPI baseline: the E810's software
// interface (packed descriptors, register signaling, host-only buffer
// management, sequential allocation) run over coherent memory.
func UnoptConfig() UPIConfig {
	return UPIConfig{
		Layout:       ring.Packed, // layout only relevant to desc array packing
		InlineSignal: false,
		NICBufMgmt:   false,
		SharedPool:   false,
		Recycle:      false,
		SmallBufs:    false,
		Sequential:   true,
		// The E810 pipeline fetches descriptors in batches of 8; its
		// interface transplanted onto UPI keeps that burst size.
		NICBurst: 8,
	}
}

func (c *UPIConfig) fillDefaults() {
	if c.RingLines == 0 {
		c.RingLines = 256
	}
	if c.NICBurst == 0 {
		c.NICBurst = 32
	}
}

// UPI is the coherent software NIC: host queues on one side, per-queue NIC
// processing units (agents on the NIC socket) on the other, all
// communicating through the coherence model.
type UPI struct {
	name string
	sys  *coherence.System
	cfg  UPIConfig
	pool *bufpool.Pool
	qs   []*upiQueue

	// Event-driven signaling state: hosts enqueue the queue index their
	// descriptor write targeted (standing in for the snoop message a
	// coherent ASIC would receive) and signal the wake event.
	wake    *sim.Event
	pending []int

	// nicSteps counts queue service iterations across NIC cores — the
	// polling work §3.2's event-driven design eliminates.
	nicSteps int64
}

// NICSteps returns the total queue service iterations performed by the
// device's NIC cores (each is one ring scan, useful or empty).
func (d *UPI) NICSteps() int64 { return d.nicSteps }

// txGroup tracks host-posted TX buffers per ring line for host-side reclaim
// when the NIC does not manage buffers.
type txGroup struct {
	bufs []*bufpool.Buf
}

type upiQueue struct {
	dev  *UPI
	idx  int
	host *coherence.Agent
	nic  *coherence.Agent

	hostPort *bufpool.Port
	nicPort  *bufpool.Port // nil unless shared pool

	// Inline-signal rings.
	txI, rxI, fillI *ring.Inline
	// Register-signaled rings.
	txR, rxR *ring.Reg
	// Register-mode software state.
	txSeen    int // NIC's view of TX tail
	rxSeenNIC int // NIC's blank-consumption position
	primed    bool
	// Store-visibility gates for register-mode signals: a register or
	// completion write is observable only after its RFO completes.
	txTailVis sim.Time
	rxTailVis sim.Time
	txDoneVis sim.Time
	rxDoneVis sim.Time
	rxCompIdx int // mode-B RX: completions published via register

	// Host-side reclaim state (NICBufMgmt false).
	txInflight []txGroup
	// spareBlanks holds blanks the NIC took but could not yet use.
	spareBlanks []*bufpool.Buf

	// Per-burst scratch, reused so a burst's lists allocate nothing once
	// grown. Each list belongs to the one process that runs its path: tx*
	// to the queue's NIC core (under the overlay, the queue's TX task),
	// rx* to the NIC core (the RX task), blanks to the host driver.
	txBufs  []*bufpool.Buf // NICBurst long
	txMetas []pktMeta
	txLines []mem.Addr
	txFree  []*bufpool.Buf
	rxMetas []rxMeta
	rxBufs  []*bufpool.Buf
	rxLines []mem.Addr
	rxSized rxSized
	blanks  []*bufpool.Buf

	in pacer
	// idle is the spin step state of the process polling this queue
	// alone (pollLoop): its NIC core, or under the overlay its TX thread.
	idle idlePoll

	stopped bool
}

// NewUPI builds a coherent NIC with one queue pair per (host, nic) agent
// pair. Both slices must have equal length; with cfg.NICCores set, queue i
// uses nics[i%NICCores] instead of nics[i]. Buffer memory is homed on the
// host agents' socket.
func NewUPI(name string, sys *coherence.System, cfg UPIConfig, hosts, nics []*coherence.Agent) *UPI {
	if len(hosts) == 0 || len(hosts) != len(nics) {
		panic("device: need equal, non-empty host and NIC agent slices")
	}
	cfg.fillDefaults()
	if cfg.BigCount == 0 {
		cfg.BigCount = 2048 * len(hosts)
	}
	d := &UPI{name: name, sys: sys, cfg: cfg}
	d.wake = sys.Kernel().NewEvent(name + ".wake")
	d.pool = bufpool.New(bufpool.Config{
		Sys:        sys,
		Home:       hosts[0].Socket(),
		BigCount:   cfg.BigCount,
		BigSize:    bigSize,
		Shared:     cfg.SharedPool,
		Recycle:    cfg.Recycle,
		SmallBufs:  cfg.SmallBufs,
		Sequential: cfg.Sequential,
	})
	for i := range hosts {
		nic := nics[i]
		if cfg.NICCores > 0 {
			nic = nics[i%cfg.NICCores]
		}
		q := &upiQueue{dev: d, idx: i, host: hosts[i], nic: nic,
			txBufs: make([]*bufpool.Buf, cfg.NICBurst)}
		q.hostPort = d.pool.Attach(hosts[i])
		if cfg.SharedPool {
			q.nicPort = d.pool.Attach(nic)
		}
		hs, ns := hosts[i].Socket(), nic.Socket()
		if cfg.InlineSignal {
			q.txI = ring.NewInline(sys, cfg.Layout, cfg.RingLines, hs)
			q.rxI = ring.NewInline(sys, cfg.Layout, cfg.RingLines, ns)
			if !cfg.NICBufMgmt {
				q.fillI = ring.NewInline(sys, cfg.Layout, cfg.RingLines, hs)
			}
		} else {
			nd := cfg.RingLines * ring.SlotsPerLine
			q.txR = ring.NewReg(sys, nd, hs, ns)
			q.rxR = ring.NewReg(sys, nd, hs, ns)
		}
		d.qs = append(d.qs, q)
	}
	return d
}

// Name returns the device name.
func (d *UPI) Name() string { return d.name }

// Kernel returns the device's shard affinity (its memory system's kernel).
func (d *UPI) Kernel() *sim.Kernel { return d.sys.Kernel() }

// NumQueues returns the queue-pair count.
func (d *UPI) NumQueues() int { return len(d.qs) }

// Queue returns queue i.
func (d *UPI) Queue(i int) Queue { return d.qs[i] }

// Pool returns the device's buffer pool (for tests).
func (d *UPI) Pool() *bufpool.Pool { return d.pool }

// SetIngress implements Injector. Synthetic ingress requires polling NIC
// cores: an event-driven core only reacts to host descriptor writes.
func (d *UPI) SetIngress(i int, rate float64, gen func() int) {
	if d.cfg.EventDriven {
		panic("device: event-driven NIC cores do not support synthetic ingress")
	}
	d.qs[i].in.set(rate, gen)
}

// TxCount implements Injector.
func (d *UPI) TxCount(i int) int64 { return d.qs[i].in.tx }

// Start spawns the NIC processing units: one per queue by default, or
// NICCores shared units serving queues round-robin.
func (d *UPI) Start() {
	cores := d.cfg.NICCores
	if cores <= 0 || cores >= len(d.qs) {
		for _, q := range d.qs {
			q := q
			serve := func(p *sim.Proc) { d.nicServe(p, []*upiQueue{q}) }
			if !d.cfg.EventDriven {
				serve = func(p *sim.Proc) { q.pollLoop(p, &d.nicSteps, q.nicStep) }
			}
			d.sys.Kernel().Spawn(fmt.Sprintf("%s.nic%d", d.name, q.idx), serve)
		}
		return
	}
	for c := 0; c < cores; c++ {
		var group []*upiQueue
		for i, q := range d.qs {
			if i%cores == c {
				group = append(group, q)
			}
		}
		d.sys.Kernel().Spawn(fmt.Sprintf("%s.niccore%d", d.name, c), func(p *sim.Proc) {
			d.nicServe(p, group)
		})
	}
}

// Stop makes the NIC processes exit at their next iteration.
func (d *UPI) Stop() {
	for _, q := range d.qs {
		q.stop()
	}
	d.wake.Signal()
}

// stop marks the queue stopped and wakes its idle poller's doze, so the
// poller's next iteration sees the flag.
func (q *upiQueue) stop() {
	q.stopped = true
	q.idle.doze.Wake()
}

// notify records a descriptor-write signal for event-driven NIC cores.
func (d *UPI) notify(idx int) {
	if !d.cfg.EventDriven {
		return
	}
	d.pending = append(d.pending, idx)
	d.wake.Signal()
}

// nicServe runs one NIC processing unit over its queue group. In polling
// mode it scans every queue each cycle; in event-driven mode the unit
// blocks until a host descriptor write signals it, then serves exactly the
// queue the coherence message identified — no scan, so discovery cost does
// not grow with the queue count (§3.2).
func (d *UPI) nicServe(p *sim.Proc, group []*upiQueue) {
	plat := d.sys.Platform()
	if d.cfg.EventDriven {
		mine := make(map[int]*upiQueue, len(group))
		for _, q := range group {
			mine[q.idx] = q
		}
		for {
			allStopped := true
			for _, q := range group {
				if !q.stopped {
					allStopped = false
				}
			}
			if allStopped {
				return
			}
			var q *upiQueue
			for i := 0; i < len(d.pending); i++ {
				if cand, ok := mine[d.pending[i]]; ok {
					d.pending = append(d.pending[:i], d.pending[i+1:]...)
					q = cand
					break
				}
			}
			if q == nil {
				p.Wait(d.wake)
				continue
			}
			if q.stopped {
				continue
			}
			d.nicSteps++
			for q.nicStep(p, false) {
				d.nicSteps++
			}
		}
	}
	for {
		busy := false
		stopped := true
		for _, q := range group {
			if q.stopped {
				continue
			}
			stopped = false
			d.nicSteps++
			if q.nicStep(p, false) {
				busy = true
			}
		}
		if stopped {
			return
		}
		if !busy {
			p.Sleep(plat.PollGap)
		}
	}
}

// pollLoop is nicServe's polling loop for a core serving one queue alone:
// it runs serve, one service iteration that reports whether it found work,
// until the queue stops, with its idle iterations run by the scheduler
// (idlePoll) instead of the core. The overlay's TX threads run it too. steps counts the
// iterations as NIC steps; nil counts none. serve's polled continues an
// iteration whose poll the step made and found work behind; the stop flag
// is checked only before a fresh iteration, so that work is still served.
func (q *upiQueue) pollLoop(p *sim.Proc, steps *int64, serve func(p *sim.Proc, polled bool) bool) {
	plat := q.dev.sys.Platform()
	gap := plat.PollGap
	idle := &q.idle
	idle.q, idle.p = q, p
	idle.doze = sim.Doze{Issue: plat.L2Hit, Gap: gap, Count: steps}
	step := idle.step
	for {
		polled := idle.polled
		idle.polled = false
		if !polled {
			if q.stopped {
				return
			}
			if steps != nil {
				*steps++
			}
		}
		if !serve(p, polled) {
			p.Spin(gap, step)
		}
	}
}
