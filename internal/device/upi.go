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
	// walk is the NIC side's walk, run by the queue's NIC core or, under
	// the overlay, by its TX task; rxWalk is the overlay RX task's.
	// drivers is the free list of host driver calls' walks.
	walk, rxWalk nicWalk
	drivers      *driverWalk
	core         *nicCore // the NIC core serving the queue (Start)

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
		q.walk.init(q)
		q.rxWalk.init(q)
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

// Start spawns the NIC processing units, each a bodiless process (nicCore)
// over its queue group: one per queue by default, or NICCores shared units
// serving queues round-robin.
func (d *UPI) Start() {
	cores, name := d.cfg.NICCores, "%s.niccore%d"
	if cores <= 0 || cores >= len(d.qs) {
		cores, name = len(d.qs), "%s.nic%d"
	}
	for i := 0; i < cores; i++ {
		c := &nicCore{d: d}
		for j := i; j < len(d.qs); j += cores {
			c.group = append(c.group, d.qs[j])
			d.qs[j].core = c
		}
		c.p = d.sys.Kernel().SpawnSpin(fmt.Sprintf(name, d.name, i), c.step)
	}
}

// Stop makes the NIC processes exit at their next iteration.
func (d *UPI) Stop() {
	for _, q := range d.qs {
		q.stopped = true
	}
	d.wake.Signal()
}

// notify records a descriptor-write signal for event-driven NIC cores.
//
//ccnic:noalloc
func (d *UPI) notify(idx int) {
	if !d.cfg.EventDriven {
		return
	}
	d.pending = append(d.pending, idx)
	d.wake.Signal()
}
