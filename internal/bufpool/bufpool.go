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
//
//ccnic:noalloc
func (b *Buf) Cap() int {
	if b.Small {
		return SmallSize
	}
	return b.pool.cfg.BigSize
}

// TotalLen returns the full packet length across segments.
//
//ccnic:noalloc
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
//
//ccnic:noalloc
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

// gcd returns the greatest common divisor of a and b.
//
//ccnic:noalloc
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
	// (an overlay queue's TX and RX tasks), hence a Scratch, and a free
	// list of burst walkers.
	lines sim.Scratch[mem.Addr]
	walks *burstWalk
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

// claimSeed adopts a slice of the unowned seed buffers into this shard.
//
//ccnic:noalloc
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
//
//ccnic:noalloc
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
	// One backing array per carve: small buffers never merge back, so a
	// pool carves each big buffer once.
	smalls := make([]Buf, n) //ccnic:alloc-ok carving is first-use warm-up, once per big buffer
	for k := range smalls {
		s := &smalls[k]
		s.Addr = b.Addr + mem.Addr(k*step%n*SmallSize)
		s.Small = true
		s.pool = pl
		small.shard = append(small.shard, s)
	}
	pl.totalBufs += n - 1 // one big became n smalls
}

// The pool's mutations. Each runs in the event its operation starts, before
// the charges that model its cost (the real structure is updated with a
// CAS), so the pool appears atomic to every other process: none of them
// yields.

// popRecycle pops the top of fl's recycling stack and takes it.
//
//ccnic:noalloc
//ccnic:owns
//ccnic:atomic pop-to-take: the popped buffer must be owned before any yield
func (pl *Pool) popRecycle(fl *freeList) *Buf {
	b := fl.recycle[len(fl.recycle)-1]
	fl.recycle = fl.recycle[:len(fl.recycle)-1]
	return pl.take(b)
}

// popShard pops one buffer off fl's non-empty shard and takes it: with
// recycling, the top, with a refill batch behind it that stays free on the
// recycling stack (LIFO); without, the front (FIFO).
//
//ccnic:noalloc
//ccnic:owns
//ccnic:atomic central-pool pop: lists and ownership settle before the charges yield
func (pl *Pool) popShard(fl *freeList) *Buf {
	var out *Buf
	if pl.cfg.Recycle {
		batch := min(refillBatch, len(fl.shard))
		top := len(fl.shard) - 1
		out = fl.shard[top]
		for i := top - 1; i >= top+1-batch; i-- {
			fl.recycle = append(fl.recycle, fl.shard[i])
		}
		fl.shard = fl.shard[:top+1-batch]
	} else {
		out = fl.shard[0]
		fl.shard = fl.shard[1:]
	}
	return pl.take(out)
}

// steal moves half of the richest other shard's buffers of class c into
// this shard and returns the victim and how many moved, or nil when every
// other shard of the class is empty.
//
//ccnic:noalloc
//ccnic:atomic steal: both shards settle before the victim-access charges yield
func (pt *Port) steal(c int) (*Port, int) {
	var victim *Port
	best := 0
	for _, o := range pt.pool.ports {
		if n := len(o.lists[c].shard); o != pt && n > best {
			best, victim = n, o
		}
	}
	if victim == nil {
		return nil, 0
	}
	src, dst := &victim.lists[c], &pt.lists[c]
	n := (best + 1) / 2
	dst.shard = append(dst.shard, src.shard[len(src.shard)-n:]...)
	src.shard = src.shard[:len(src.shard)-n]
	return victim, n
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

// push releases b onto its size class's free list at this port: the
// recycling stack, or else the shard's tail. It returns the list and the
// shard depth a central push starts at.
//
//ccnic:noalloc
//ccnic:transfer
//ccnic:atomic release-to-push: the freed buffer must be listed before any yield
func (pt *Port) push(b *Buf) (*freeList, int) {
	pl := pt.pool
	if b.pool != pl {
		panic("bufpool: buffer freed to wrong pool")
	}
	if b.state != stateAllocated {
		panic(fmt.Sprintf("bufpool: double free of buffer %#x", b.Addr))
	}
	b.state = stateFree
	pl.allocatedBufs--
	fl := &pt.lists[classOf(b.Small)]
	if pl.cfg.Recycle {
		fl.recycle = append(fl.recycle, b)
		return fl, 0
	}
	depth := len(fl.shard)
	fl.shard = append(fl.shard, b)
	return fl, depth
}

// spill moves the oldest half of fl's recycling stack onto the shard's
// tail, and returns the shard depth the moved entries start at and their
// count.
//
//ccnic:noalloc
//ccnic:atomic spill: both lists settle before the charges yield
func (pt *Port) spill(fl *freeList) (depth, n int) {
	n = len(fl.recycle) / 2
	depth = len(fl.shard)
	fl.shard = append(fl.shard, fl.recycle[:n]...)
	fl.recycle = fl.recycle[:copy(fl.recycle, fl.recycle[n:])]
	return depth, n
}

// Alloc allocates one buffer large enough for size payload bytes, charging
// the calling process for the memory operations involved: a burst of one
// (see AllocBurst). It returns nil if the pool is exhausted. The caller
// owns the result: ownlint requires it be released or transferred exactly
// once on every path.
//
//ccnic:noalloc
//ccnic:owns
func (pt *Port) Alloc(p *sim.Proc, size int) *Buf {
	w := pt.allocs(size, nil, nil)
	w.out = w.one[:]
	w.run(p)
	b := w.one[0]
	w.put()
	return b
}

// AllocBurst allocates up to len(out) buffers for size payload bytes each,
// in order, and returns how many it obtained: it stops at the first the
// pool cannot supply. The burst is one walk (see burstWalk), so the calling
// process resumes once however many buffers it is charged for. The caller
// owns out[:n].
//
//ccnic:noalloc
func (pt *Port) AllocBurst(p *sim.Proc, size int, out []*Buf) int {
	return pt.allocs(size, out, nil).run(p).End()
}

// AllocFeed sizes the buffers of a fed allocation burst (Port.AllocFed) and
// receives each in the event its allocation completes. Caller work that
// reads the clock, or that another process may see, belongs here: once the
// burst has ended, the clock has moved past every buffer but the last.
// Both methods run in the burst's spin steps, outside every process, so
// they must not block. Bind a feed once per caller, as a pointer.
type AllocFeed interface {
	// Size returns buffer i's payload size, or false to end the burst
	// before it. It runs in the event buffer i's allocation starts: on the
	// calling process for buffer 0, else in the event buffer i-1's
	// completed, right after Took(i-1).
	Size(i int) (int, bool)
	// Took receives buffer i, also stored in out[i], in the event its
	// allocation's charges complete.
	Took(i int, b *Buf)
}

// AllocFed is AllocBurst with a feed: buffer i is sized by feed.Size(i) and
// handed to feed.Took once allocated. It returns how many buffers it
// obtained, which the caller owns in out.
//
//ccnic:noalloc
func (pt *Port) AllocFed(p *sim.Proc, out []*Buf, feed AllocFeed) int {
	return pt.allocs(0, out, feed).run(p).End()
}

// Free returns a buffer to the port's recycling stack (spilling half the
// stack to the central pool when full) or directly to the central pool: a
// burst of one (see FreeBurst). It consumes the buffer: the caller's
// ownership ends here.
//
//ccnic:noalloc
//ccnic:transfer
func (pt *Port) Free(p *sim.Proc, b *Buf) {
	w := pt.frees(nil, nil)
	w.one[0] = b
	w.bufs = w.one[:]
	w.run(p).End()
}

// FreeBurst frees a batch of buffers in order, consuming them, as one walk
// (see burstWalk).
//
//ccnic:noalloc
//ccnic:transfer
func (pt *Port) FreeBurst(p *sim.Proc, bufs []*Buf) {
	pt.frees(bufs, nil).run(p).End()
}

// FreeFeed hands a fed free burst (Port.FreeFed) its buffers one at a time,
// for callers whose work between frees another process may see. Next runs
// in the burst's spin steps, outside every process, so it must not block.
// Bind a feed once per caller, as a pointer.
type FreeFeed interface {
	// Next returns the buffer free i releases, which the burst consumes,
	// or nil to end the burst. It runs in the event free i starts: on the
	// calling process for free 0, else in the event free i-1 completed.
	Next(i int) *Buf
}

// FreeFed frees the buffers feed hands out, as one walk.
//
//ccnic:noalloc
func (pt *Port) FreeFed(p *sim.Proc, feed FreeFeed) {
	pt.frees(nil, feed).run(p).End()
}
