// Package bufpool implements packet buffer management for the simulated NIC
// interfaces, including every CC-NIC buffer optimization from §3.3-§3.4 of
// the paper — each individually switchable so the Fig 15 ablation can remove
// them one at a time:
//
//   - a shared, coherently-accessed central pool that both host and NIC
//     allocate from and free to (vs. host-only management),
//   - per-core recycling stacks that reuse the most recently freed TX
//     buffers as RX buffers and vice versa, keeping buffer memory in the
//     writer's cache,
//   - small-buffer subdivision (an MTU-sized buffer carved into 128B
//     buffers for small packets), and
//   - non-sequential pool fill, so consecutive allocations do not return
//     adjacent addresses (defeating harmful remote prefetch).
//
// All buffer memory is homed on the host socket, as in the paper.
package bufpool

import (
	"fmt"

	"ccnic/internal/coherence"
	"ccnic/internal/mem"
	"ccnic/internal/sim"
)

// SmallSize is the subdivided small-buffer size (the paper's example: a 4KB
// buffer split into 32x128B buffers).
const SmallSize = 128

// stackOpCost is the CPU cost of one recycle-stack push or pop. The stack's
// hot lines live in the owning core's L1, so this is instruction cost, not
// a coherence event.
const stackOpCost = 2 * sim.Nanosecond

// bufState tracks allocation state to enforce pool invariants.
type bufState uint8

const (
	stateFree bufState = iota
	stateAllocated
)

// Buf is a packet buffer. Addr and Cap() describe the simulated memory; the
// remaining fields carry packet metadata out-of-band (the simulation does
// not store bytes behind addresses). Pools build one per buffer, so the
// layout is kept to 64 bytes.
type Buf struct {
	Addr mem.Addr

	// Len is the current payload length.
	Len int
	// Seq and Born identify and timestamp the packet for latency
	// measurement.
	Seq  uint64
	Born sim.Time
	// ExtAddr/ExtLen describe an optional second, zero-copy segment
	// (multi-segment TX, used by the key-value store's get responses).
	ExtAddr mem.Addr
	ExtLen  int

	pool *Pool
	// Small marks a subdivided SmallSize buffer.
	Small bool
	state bufState
}

// Cap returns the buffer's capacity in bytes.
func (b *Buf) Cap() int {
	if b.Small {
		return SmallSize
	}
	return b.pool.cfg.BigSize
}

// TotalLen returns the full packet length across segments.
func (b *Buf) TotalLen() int { return b.Len + b.ExtLen }

// ResetMeta clears per-packet metadata before reuse.
//
//ccnic:noalloc
func (b *Buf) ResetMeta() {
	b.Len, b.Seq, b.Born, b.ExtAddr, b.ExtLen = 0, 0, 0, 0, 0
}

// Lines appends to dst the payload cache lines (first segment, Len bytes)
// of a burst, so accesses can overlap across packets, as an out-of-order
// core or a NIC engine would. Callers pass a scratch slice they own.
//
//ccnic:noalloc
func Lines(dst []mem.Addr, bufs []*Buf) []mem.Addr {
	for _, b := range bufs {
		dst = mem.AppendLines(dst, b.Addr, b.Len)
	}
	return dst
}

// Config selects the pool's feature set.
type Config struct {
	Sys *coherence.System

	// Home is the socket buffer memory is homed on (0 = host).
	Home int
	// BigCount MTU-size buffers of BigSize bytes each.
	BigCount int
	BigSize  int

	// Shared lets NIC-side ports allocate and free (CC-NIC §3.4).
	Shared bool
	// Recycle enables per-port recycling stacks (§3.3).
	Recycle bool
	// SmallBufs enables small-buffer subdivision (§3.3).
	SmallBufs bool
	// Sequential fills freelists in address order (the harmful layout);
	// false applies CC-NIC's non-sequential fill.
	Sequential bool

	// RecycleDepth bounds each port's recycling stack (default 64).
	RecycleDepth int
}

// refillBatch is how many buffers a recycling port moves from its shard per
// central-pool allocation: one is returned, the rest go onto its stack.
const refillBatch = 32

// Size classes index a port's free lists.
const (
	classBig = iota
	classSmall
	numClasses
)

// classOf returns the size class of a buffer or request.
//
//ccnic:noalloc
func classOf(small bool) int {
	if small {
		return classSmall
	}
	return classBig
}

// freeList is one size class's free space on a port.
type freeList struct {
	// shard is the port's partition of the pool's free space. With
	// recycling enabled it is a LIFO stack (hot reuse); without it, it
	// behaves as a FIFO ring, cycling the full buffer footprint as DPDK's
	// uncached mempool ring does — the cache-footprint cost the paper's
	// recycling ablation measures.
	shard []*Buf
	// recycle is the port's recycling stack (empty unless Recycle).
	recycle []*Buf
}

// Pool is the packet-buffer pool. Its free space is sharded per attached
// port (the standard DPDK deployment: a mempool partition per queue), with
// work stealing between shards when one runs dry. Each shard's lock/head
// line and entry array live in coherent memory near its owner, so pool
// traffic is charged to the right caches and link without funneling every
// queue through one contended line.
type Pool struct {
	cfg Config
	sys *coherence.System

	// seed holds big buffers not yet adopted by any shard; the first
	// shards to run dry claim from it (cheap, models initial pool fill).
	seed []*Buf

	// Accounting for invariant checks.
	totalBufs     int // bigs not carved + smalls carved
	allocatedBufs int

	ports []*Port
}

// New builds a pool and its central freelists.
func New(cfg Config) *Pool {
	if cfg.Sys == nil {
		panic("bufpool: Config.Sys is required")
	}
	if cfg.BigCount <= 0 || cfg.BigSize <= 0 {
		panic("bufpool: BigCount and BigSize must be positive")
	}
	if cfg.BigSize%SmallSize != 0 {
		panic("bufpool: BigSize must be a multiple of SmallSize")
	}
	if cfg.RecycleDepth == 0 {
		cfg.RecycleDepth = 64
	}
	pl := &Pool{cfg: cfg, sys: cfg.Sys}
	sp := cfg.Sys.Space()
	base := sp.Alloc(cfg.Home, cfg.BigCount*cfg.BigSize, mem.Addr(cfg.BigSize))
	n := cfg.BigCount
	step := fillStep(n, cfg.Sequential)
	// One backing array for the whole seed population: pool construction
	// happens per simulation, and per-Buf allocations dominated the
	// allocator profile.
	bufs := make([]Buf, n)
	pl.seed = make([]*Buf, n)
	for k := range bufs {
		b := &bufs[k]
		b.Addr = base + mem.Addr(k*step%n*cfg.BigSize)
		b.pool = pl
		pl.seed[k] = b
	}
	pl.totalBufs = n
	return pl
}

// fillStep returns the stride of the fill order over n buffers: the k-th
// buffer handed out is buffer k*step mod n. The step is 1 when sequential,
// otherwise a co-prime step that scatters neighbors, so consecutive
// allocations are far apart.
func fillStep(n int, sequential bool) int {
	if sequential {
		return 1
	}
	step := n/7 + 1
	for gcd(step, n) != 1 {
		step++
	}
	return step
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Shared reports whether NIC-side ports may manage buffers.
func (pl *Pool) Shared() bool { return pl.cfg.Shared }

// Outstanding returns the number of currently allocated buffers.
func (pl *Pool) Outstanding() int { return pl.allocatedBufs }

// notify reports a completed pool mutation to the system's validation probe.
//
//ccnic:noalloc
func (pl *Pool) notify() {
	if pr := pl.sys.Probe(); pr != nil {
		pr.ObjectEvent(pl)
	}
}

// CheckDesc implements coherence.Checkable.
func (pl *Pool) CheckDesc() string {
	return fmt.Sprintf("bufpool home=%d bigs=%d shared=%v recycle=%v",
		pl.cfg.Home, pl.cfg.BigCount, pl.cfg.Shared, pl.cfg.Recycle)
}

// eachFree calls fn on the seed list and on every port's free lists,
// stopping at the first error.
func (pl *Pool) eachFree(fn func([]*Buf) error) error {
	if err := fn(pl.seed); err != nil {
		return err
	}
	for _, pt := range pl.ports {
		for c := range pt.lists {
			if err := fn(pt.lists[c].recycle); err != nil {
				return err
			}
			if err := fn(pt.lists[c].shard); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckCounts is the cheap (O(ports)) conservation check: list lengths plus
// the allocated counter must equal the total, with no negative counters. The
// full duplicate scan lives in CheckConservation.
func (pl *Pool) CheckCounts() error {
	if pl.allocatedBufs < 0 {
		return fmt.Errorf("bufpool: negative allocated count %d", pl.allocatedBufs)
	}
	free := 0
	pl.eachFree(func(bufs []*Buf) error { free += len(bufs); return nil })
	if free+pl.allocatedBufs != pl.totalBufs {
		return fmt.Errorf("bufpool: %d free + %d allocated != %d total",
			free, pl.allocatedBufs, pl.totalBufs)
	}
	return nil
}

// CheckInvariants implements coherence.Checkable with the cheap check; the
// invariant engine runs CheckConservation on its throttled full passes.
func (pl *Pool) CheckInvariants() error { return pl.CheckCounts() }

// CheckConservation verifies that no buffer was leaked or duplicated: the
// counts of CheckCounts, and every listed buffer free and on one list only.
func (pl *Pool) CheckConservation() error {
	if err := pl.CheckCounts(); err != nil {
		return err
	}
	seen := make(map[mem.Addr]bool)
	return pl.eachFree(func(bufs []*Buf) error {
		for _, b := range bufs {
			if b.state != stateFree {
				return fmt.Errorf("bufpool: buffer %#x on a free list but not free", b.Addr)
			}
			if seen[b.Addr] {
				return fmt.Errorf("bufpool: buffer %#x on two free lists", b.Addr)
			}
			seen[b.Addr] = true
		}
		return nil
	})
}

// Port is a per-core handle on the pool: the core's shard of the free
// space plus its recycling stacks, one free list per size class. Create one
// per driver/NIC thread with Attach.
type Port struct {
	pool  *Pool
	agent *coherence.Agent

	lists       [numClasses]freeList
	lockLine    mem.Addr
	entriesBase mem.Addr
	stackLine   mem.Addr // the recycle stack's hot line (local memory)
	// lines is the scratch for entryLines. A port may serve two processes
	// (an overlay queue's TX and RX tasks), hence a Scratch.
	lines sim.Scratch[mem.Addr]
}

// Attach creates a Port for the given agent. NIC-socket agents may only
// attach to shared pools.
func (pl *Pool) Attach(a *coherence.Agent) *Port {
	if a.Socket() != pl.cfg.Home && !pl.cfg.Shared {
		panic("bufpool: non-shared pool cannot be attached from the device side")
	}
	sp := pl.sys.Space()
	pt := &Port{
		pool:        pl,
		agent:       a,
		lockLine:    sp.AllocLines(a.Socket(), 1),
		entriesBase: sp.Alloc(a.Socket(), 8*pl.cfg.BigCount*(pl.cfg.BigSize/SmallSize), 0),
		stackLine:   sp.AllocLines(a.Socket(), 1),
	}
	pl.ports = append(pl.ports, pt)
	return pt
}

// MaxLen returns the largest packet, in bytes, one of the port's buffers
// holds.
func (pt *Port) MaxLen() int { return pt.pool.cfg.BigSize }

// entryLines appends to dst the shard entry lines touched by moving count
// pointers at the given stack depth (8 pointers per line).
//
//ccnic:noalloc
func (pt *Port) entryLines(dst []mem.Addr, depth, count int) []mem.Addr {
	last := mem.Addr(0)
	for i := depth; i < depth+count; i++ {
		l := mem.LineOf(pt.entriesBase + mem.Addr(i*8))
		if l != last {
			dst = append(dst, l)
			last = l
		}
	}
	return dst
}

// touchEntries charges the port's agent for moving count pointers at the
// given depth of port o's shard (o is pt, or a steal's victim): a gather
// read, or a scatter write when write is set.
func (pt *Port) touchEntries(p *sim.Proc, o *Port, depth, count int, write bool) {
	lines := o.entryLines(pt.lines.Take(), depth, count)
	if write {
		pt.agent.ScatterWrite(p, lines)
	} else {
		pt.agent.GatherRead(p, lines)
	}
	pt.lines.Put(lines)
}

// claimSeed adopts a slice of the unowned seed buffers into this shard.
func (pt *Port) claimSeed() {
	pl := pt.pool
	n := len(pl.seed) / max(1, len(pl.ports))
	if n == 0 {
		n = len(pl.seed)
	}
	big := &pt.lists[classBig]
	big.shard = append(big.shard, pl.seed[len(pl.seed)-n:]...)
	pl.seed = pl.seed[:len(pl.seed)-n]
}

// carveSmall splits one big buffer from the shard into small buffers in the
// configured fill order.
func (pt *Port) carveSmall() {
	pl := pt.pool
	big, small := &pt.lists[classBig], &pt.lists[classSmall]
	if len(big.shard) == 0 {
		return
	}
	b := big.shard[len(big.shard)-1]
	big.shard = big.shard[:len(big.shard)-1]
	n := b.Cap() / SmallSize
	step := fillStep(n, pl.cfg.Sequential)
	for k := 0; k < n; k++ {
		small.shard = append(small.shard, &Buf{
			Addr:  b.Addr + mem.Addr(k*step%n*SmallSize),
			Small: true,
			pool:  pl,
		})
	}
	pl.totalBufs += n - 1 // one big became n smalls
}

// Alloc allocates one buffer large enough for size payload bytes, charging
// the calling process for the memory operations involved. It returns nil if
// the pool is exhausted. The caller owns the result: ownlint requires it be
// released or transferred exactly once on every path.
//
//ccnic:noalloc
//ccnic:owns
func (pt *Port) Alloc(p *sim.Proc, size int) *Buf {
	pl := pt.pool
	c := classOf(pl.cfg.SmallBufs && size <= SmallSize)
	// Fast path: the recycling stack.
	if fl := &pt.lists[c]; pl.cfg.Recycle && len(fl.recycle) > 0 {
		//ccnic:atomic pop-to-take: the popped buffer must be owned before any yield
		b := fl.recycle[len(fl.recycle)-1]
		fl.recycle = fl.recycle[:len(fl.recycle)-1]
		b = pl.take(b)
		//ccnic:atomic-end the Exec charge below yields; the pool is consistent again
		pt.agent.Exec(p, stackOpCost) // L1-resident stack pop
		return b
	}
	// Central pool refill/alloc.
	return pt.centralAlloc(p, c) //ccnic:alloc-ok central refill is the audited slow path
}

// centralAlloc pops one buffer of class c (plus a refill batch when
// recycling) from the port's shard. A dry shard first takes bigs from the
// seed and carves smalls from its own bigs, then steals from the richest
// other shard.
//
//ccnic:owns
func (pt *Port) centralAlloc(p *sim.Proc, c int) *Buf {
	pl := pt.pool
	fl := &pt.lists[c]
	if len(fl.shard) == 0 {
		if len(pt.lists[classBig].shard) == 0 && len(pl.seed) > 0 {
			pt.claimSeed()
		}
		if c == classSmall {
			pt.carveSmall()
		}
	}
	if len(fl.shard) == 0 {
		pt.steal(p, c)
	}
	// Even a successful steal can leave the shard empty: its charges
	// yield, and another port may steal from this one meanwhile.
	if len(fl.shard) == 0 {
		return nil
	}
	// Mutate the shared structure first: agent operations below yield to
	// other processes, and the pool must appear atomic to them (the real
	// structure is updated with a CAS; the charges below model its cost).
	//ccnic:atomic central-pool pop: lists and ownership settle before the charges yield
	var out *Buf
	batch := 1
	if pl.cfg.Recycle {
		// LIFO: return the top; the rest of the batch stays free-state
		// on the recycle stack.
		batch = min(refillBatch, len(fl.shard))
		top := len(fl.shard) - 1
		out = fl.shard[top]
		for i := top - 1; i >= top+1-batch; i-- {
			fl.recycle = append(fl.recycle, fl.shard[i])
		}
		fl.shard = fl.shard[:top+1-batch]
	} else {
		// FIFO: take from the front.
		out = fl.shard[0]
		fl.shard = fl.shard[1:]
	}
	depth := len(fl.shard)
	out = pl.take(out)
	//ccnic:atomic-end
	pt.agent.Write(p, pt.lockLine, 8)
	pt.touchEntries(p, pt, depth, batch, false)
	return out
}

// steal moves half of the richest other shard's buffers of class c into
// this shard, charging the victim-shard accesses.
func (pt *Port) steal(p *sim.Proc, c int) {
	var victim *Port
	best := 0
	for _, o := range pt.pool.ports {
		if n := len(o.lists[c].shard); o != pt && n > best {
			best, victim = n, o
		}
	}
	if victim == nil {
		return
	}
	src, dst := &victim.lists[c], &pt.lists[c]
	n := (best + 1) / 2
	//ccnic:atomic steal: both shards settle before the victim-access charges yield
	dst.shard = append(dst.shard, src.shard[len(src.shard)-n:]...)
	src.shard = src.shard[:len(src.shard)-n]
	//ccnic:atomic-end
	pt.agent.Write(p, victim.lockLine, 8)
	pt.touchEntries(p, victim, len(src.shard), n, false)
}

// take transitions a buffer to allocated, enforcing single-allocation: it
// consumes the raw popped buffer and hands back the same buffer as an owned
// allocation.
//
//ccnic:noalloc
//ccnic:transfer
//ccnic:owns
func (pl *Pool) take(b *Buf) *Buf {
	if b.state != stateFree {
		panic(fmt.Sprintf("bufpool: double allocation of buffer %#x", b.Addr))
	}
	b.state = stateAllocated
	b.ResetMeta()
	pl.allocatedBufs++
	pl.notify()
	return b
}

// AllocBurst allocates up to len(out) buffers for the given payload size,
// returning how many were obtained.
func (pt *Port) AllocBurst(p *sim.Proc, size int, out []*Buf) int {
	for i := range out {
		b := pt.Alloc(p, size)
		if b == nil {
			return i
		}
		out[i] = b
	}
	return len(out)
}

// Free returns a buffer to the port's recycling stack (spilling half the
// stack to the central pool when full) or directly to the central pool. It
// consumes the buffer: the caller's ownership ends here.
//
//ccnic:noalloc
//ccnic:transfer
func (pt *Port) Free(p *sim.Proc, b *Buf) {
	pl := pt.pool
	if b.pool != pl {
		panic("bufpool: buffer freed to wrong pool")
	}
	if b.state != stateAllocated {
		panic(fmt.Sprintf("bufpool: double free of buffer %#x", b.Addr))
	}
	//ccnic:atomic release-to-push: the freed buffer must be listed before any yield
	b.state = stateFree
	pl.allocatedBufs--
	fl := &pt.lists[classOf(b.Small)]
	if pl.cfg.Recycle {
		fl.recycle = append(fl.recycle, b)
		//ccnic:atomic-end the Exec charge below yields; the pool is consistent again
		pt.agent.Exec(p, stackOpCost) // L1-resident stack push
		if len(fl.recycle) > pl.cfg.RecycleDepth {
			pt.spill(p, fl) //ccnic:alloc-ok bounded spill is the audited slow path
		}
		pl.notify()
		return
	}
	pt.centralFree(p, fl, b) //ccnic:alloc-ok non-recycling central free is the audited slow path
	pl.notify()
}

// FreeBurst frees a batch of buffers, consuming them.
//
//ccnic:transfer
func (pt *Port) FreeBurst(p *sim.Proc, bufs []*Buf) {
	for _, b := range bufs {
		pt.Free(p, b)
	}
}

// spill moves the oldest half of a recycle stack back to the central pool.
func (pt *Port) spill(p *sim.Proc, fl *freeList) {
	n := len(fl.recycle) / 2
	moved := append([]*Buf(nil), fl.recycle[:n]...)
	fl.recycle = append(fl.recycle[:0], fl.recycle[n:]...)
	pt.centralFree(p, fl, moved...)
}

// centralFree pushes buffers of one size class onto the port's shard,
// charging the shard structure accesses.
func (pt *Port) centralFree(p *sim.Proc, fl *freeList, bufs ...*Buf) {
	// Mutate first (see centralAlloc), then charge.
	//ccnic:atomic central-pool push: lists settle before the charges yield
	depth := len(fl.shard)
	fl.shard = append(fl.shard, bufs...)
	//ccnic:atomic-end
	pt.agent.Write(p, pt.lockLine, 8)
	pt.touchEntries(p, pt, depth, len(bufs), true)
}
