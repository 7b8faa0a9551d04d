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

// Lines collects the payload cache lines (first segment, Len bytes) of a
// burst, so accesses can overlap across packets, as an out-of-order core
// or a NIC engine would.
func Lines(bufs []*Buf) []mem.Addr {
	var lines []mem.Addr
	for _, b := range bufs {
		mem.Lines(b.Addr, b.Len, func(l mem.Addr) { lines = append(lines, l) })
	}
	return lines
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
	// RefillBatch is the central-pool transfer batch size (default 32).
	RefillBatch int
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

	// seed holds buffers not yet adopted by any shard; the first shards
	// to run dry claim from it (cheap, models initial pool fill).
	seedBig   []*Buf
	seedSmall []*Buf

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
	if cfg.RefillBatch == 0 {
		cfg.RefillBatch = 32
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
	pl.seedBig = make([]*Buf, n)
	for k := range bufs {
		b := &bufs[k]
		b.Addr = base + mem.Addr(k*step%n*cfg.BigSize)
		b.pool = pl
		pl.seedBig[k] = b
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

// CheckCounts is the cheap (O(ports)) conservation check: list lengths plus
// the allocated counter must equal the total, with no negative counters. The
// full duplicate scan lives in CheckConservation.
func (pl *Pool) CheckCounts() error {
	if pl.allocatedBufs < 0 {
		return fmt.Errorf("bufpool: negative allocated count %d", pl.allocatedBufs)
	}
	free := len(pl.seedBig) + len(pl.seedSmall)
	for _, pt := range pl.ports {
		free += len(pt.recycleBig) + len(pt.recycleSmall)
		free += len(pt.shardBig) + len(pt.shardSmall)
	}
	if free+pl.allocatedBufs != pl.totalBufs {
		return fmt.Errorf("bufpool: %d free + %d allocated != %d total",
			free, pl.allocatedBufs, pl.totalBufs)
	}
	return nil
}

// CheckInvariants implements coherence.Checkable with the cheap check; the
// invariant engine runs CheckConservation on its throttled full passes.
func (pl *Pool) CheckInvariants() error { return pl.CheckCounts() }

// carveSmall splits one big buffer from the shard into small buffers in the
// configured fill order.
func (pt *Port) carveSmall() bool {
	pl := pt.pool
	if len(pt.shardBig) == 0 && len(pl.seedBig) > 0 {
		pt.claimSeed()
	}
	if len(pt.shardBig) == 0 {
		return false
	}
	big := pt.shardBig[len(pt.shardBig)-1]
	pt.shardBig = pt.shardBig[:len(pt.shardBig)-1]
	n := big.Cap() / SmallSize
	step := fillStep(n, pl.cfg.Sequential)
	for k := 0; k < n; k++ {
		pt.shardSmall = append(pt.shardSmall, &Buf{
			Addr:  big.Addr + mem.Addr(k*step%n*SmallSize),
			Small: true,
			pool:  pl,
		})
	}
	pl.totalBufs += n - 1 // one big became n smalls
	return true
}

// entryLines returns the shard entry lines touched by moving count pointers
// at the given stack depth (8 pointers per line).
func (pt *Port) entryLines(depth, count int) []mem.Addr {
	var lines []mem.Addr
	last := mem.Addr(0)
	for i := depth; i < depth+count; i++ {
		l := mem.LineOf(pt.entriesBase + mem.Addr(i*8))
		if l != last {
			lines = append(lines, l)
			last = l
		}
	}
	return lines
}

// Port is a per-core handle on the pool: the core's shard of the free
// space plus its recycling stacks. Create one per driver/NIC thread with
// Attach.
type Port struct {
	pool  *Pool
	agent *coherence.Agent

	// The shard: this port's partition of the pool's free space. With
	// recycling enabled the shard is a LIFO stack (hot reuse); without
	// it, it behaves as a FIFO ring, cycling the full buffer footprint
	// as DPDK's uncached mempool ring does — the cache-footprint cost
	// the paper's recycling ablation measures.
	shardBig    []*Buf
	shardSmall  []*Buf
	headBig     int // FIFO cursors (non-recycling mode)
	headSmall   int
	lockLine    mem.Addr
	entriesBase mem.Addr

	recycleBig   []*Buf
	recycleSmall []*Buf
	stackLine    mem.Addr // the recycle stack's hot line (local memory)
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

// claimSeed adopts a slice of the unowned seed buffers into this shard.
func (pt *Port) claimSeed() {
	pl := pt.pool
	n := len(pl.seedBig) / max(1, len(pl.ports))
	if n == 0 {
		n = len(pl.seedBig)
	}
	pt.shardBig = append(pt.shardBig, pl.seedBig[len(pl.seedBig)-n:]...)
	pl.seedBig = pl.seedBig[:len(pl.seedBig)-n]
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
	small := pl.cfg.SmallBufs && size <= SmallSize
	// Fast path: the recycling stack.
	if pl.cfg.Recycle {
		stack := &pt.recycleBig
		if small {
			stack = &pt.recycleSmall
		}
		if n := len(*stack); n > 0 {
			//ccnic:atomic pop-to-take: the popped buffer must be owned before any yield
			b := (*stack)[n-1]
			*stack = (*stack)[:n-1]
			b = pl.take(b)
			//ccnic:atomic-end the Exec charge below yields; the pool is consistent again
			pt.agent.Exec(p, stackOpCost) // L1-resident stack pop
			return b
		}
	}
	// Central pool refill/alloc.
	return pt.centralAlloc(p, small) //ccnic:alloc-ok central refill is the audited slow path
}

// centralAlloc pops one buffer (plus a refill batch when recycling) from
// the port's shard, claiming seed buffers or stealing from the richest
// other shard when dry.
//
//ccnic:owns
func (pt *Port) centralAlloc(p *sim.Proc, small bool) *Buf {
	pl := pt.pool
	list := &pt.shardBig
	if small {
		if len(pt.shardSmall) == 0 {
			pt.carveSmall()
		}
		if len(pt.shardSmall) == 0 && !pt.steal(p, true) {
			return nil
		}
		list = &pt.shardSmall
	} else {
		if len(pt.shardBig) == 0 && len(pl.seedBig) > 0 {
			pt.claimSeed()
		}
		if len(pt.shardBig) == 0 && !pt.steal(p, false) {
			return nil
		}
	}
	if len(*list) == 0 {
		return nil
	}
	batch := 1
	if pl.cfg.Recycle {
		batch = pl.cfg.RefillBatch
	}
	if batch > len(*list) {
		batch = len(*list)
	}
	// Mutate the shared structure first: agent operations below yield to
	// other processes, and the pool must appear atomic to them (the real
	// structure is updated with a CAS; the charges below model its cost).
	//ccnic:atomic central-pool pop: lists and ownership settle before the charges yield
	depth := len(*list) - batch
	var out *Buf
	head := &pt.headBig
	if small {
		head = &pt.headSmall
	}
	for i := 0; i < batch; i++ {
		var b *Buf
		if pl.cfg.Recycle {
			b = (*list)[len(*list)-1]
			*list = (*list)[:len(*list)-1]
		} else {
			// FIFO: take from the front, compacting lazily.
			if *head >= len(*list) {
				*head = 0
			}
			b = (*list)[*head]
			copy((*list)[*head:], (*list)[*head+1:])
			*list = (*list)[:len(*list)-1]
		}
		if i == 0 {
			out = b
		} else if small {
			pt.recycleSmall = append(pt.recycleSmall, b)
		} else {
			pt.recycleBig = append(pt.recycleBig, b)
		}
	}
	// Extra refill entries beyond the first stay free-state on the
	// recycle stack; only the returned buffer is marked allocated.
	out = pl.take(out)
	//ccnic:atomic-end
	pt.agent.Write(p, pt.lockLine, 8)
	pt.agent.GatherRead(p, pt.entryLines(depth, batch))
	return out
}

// steal moves half of the richest other shard's buffers (of the requested
// class) into this shard, charging the victim-shard accesses. It reports
// whether anything was obtained.
func (pt *Port) steal(p *sim.Proc, small bool) bool {
	var victim *Port
	best := 0
	for _, o := range pt.pool.ports {
		if o == pt {
			continue
		}
		n := len(o.shardBig)
		if small {
			n = len(o.shardSmall)
		}
		if n > best {
			best = n
			victim = o
		}
	}
	if victim == nil {
		// Last resort for small requests: carve from any big source.
		if small {
			return pt.carveSmall()
		}
		return false
	}
	src := &victim.shardBig
	dst := &pt.shardBig
	if small {
		src = &victim.shardSmall
		dst = &pt.shardSmall
	}
	n := (best + 1) / 2
	//ccnic:atomic steal: both shards settle before the victim-access charges yield
	*dst = append(*dst, (*src)[len(*src)-n:]...)
	*src = (*src)[:len(*src)-n]
	//ccnic:atomic-end
	pt.agent.Write(p, victim.lockLine, 8)
	pt.agent.GatherRead(p, victim.entryLines(len(*src), n))
	return true
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

	if pl.cfg.Recycle {
		stack := &pt.recycleBig
		if b.Small {
			stack = &pt.recycleSmall
		}
		*stack = append(*stack, b)
		//ccnic:atomic-end the Exec charge below yields; the pool is consistent again
		pt.agent.Exec(p, stackOpCost) // L1-resident stack push
		if len(*stack) > pl.cfg.RecycleDepth {
			pt.spill(p, stack) //ccnic:alloc-ok bounded spill is the audited slow path
		}
		pl.notify()
		return
	}
	pt.centralFree(p, []*Buf{b}) //ccnic:alloc-ok non-recycling central free is the audited slow path
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

// spill moves the oldest half of the recycle stack back to the central pool.
func (pt *Port) spill(p *sim.Proc, stack *[]*Buf) {
	n := len(*stack) / 2
	moved := append([]*Buf(nil), (*stack)[:n]...)
	*stack = append((*stack)[:0], (*stack)[n:]...)
	pt.centralFree(p, moved)
}

// centralFree pushes buffers onto the port's shard, charging the shard
// structure accesses.
func (pt *Port) centralFree(p *sim.Proc, bufs []*Buf) {
	// Mutate first (see centralAlloc), then charge.
	//ccnic:atomic central-pool push: lists settle before the charges yield
	depthBig, depthSmall := len(pt.shardBig), len(pt.shardSmall)
	nBig, nSmall := 0, 0
	for _, b := range bufs {
		if b.Small {
			pt.shardSmall = append(pt.shardSmall, b)
			nSmall++
		} else {
			pt.shardBig = append(pt.shardBig, b)
			nBig++
		}
	}
	//ccnic:atomic-end
	pt.agent.Write(p, pt.lockLine, 8)
	if nBig > 0 {
		pt.agent.ScatterWrite(p, pt.entryLines(depthBig, nBig))
	}
	if nSmall > 0 {
		pt.agent.ScatterWrite(p, pt.entryLines(depthSmall, nSmall))
	}
}

// CheckConservation verifies that no buffer was leaked or duplicated:
// free lists + recycle stacks + allocated count must equal the total.
func (pl *Pool) CheckConservation() error {
	free := len(pl.seedBig) + len(pl.seedSmall)
	for _, pt := range pl.ports {
		free += len(pt.recycleBig) + len(pt.recycleSmall)
		free += len(pt.shardBig) + len(pt.shardSmall)
	}
	if free+pl.allocatedBufs != pl.totalBufs {
		return fmt.Errorf("bufpool: %d free + %d allocated != %d total",
			free, pl.allocatedBufs, pl.totalBufs)
	}
	seen := make(map[mem.Addr]bool)
	check := func(bufs []*Buf) error {
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
	}
	if err := check(pl.seedBig); err != nil {
		return err
	}
	if err := check(pl.seedSmall); err != nil {
		return err
	}
	for _, pt := range pl.ports {
		if err := check(pt.recycleBig); err != nil {
			return err
		}
		if err := check(pt.recycleSmall); err != nil {
			return err
		}
		if err := check(pt.shardBig); err != nil {
			return err
		}
		if err := check(pt.shardSmall); err != nil {
			return err
		}
	}
	return nil
}
