// Package coherence models a two-socket cache-coherent memory system: per
// core private L2 caches, per-socket shared LLCs, DRAM homed by address, and
// a MESIF-style protocol over the UPI link.
//
// The model is behavioural, not cycle-accurate: each access returns a
// latency determined by where the line currently lives (calibrated to the
// paper's Fig 7), updates the global coherence state, and charges the
// interconnect for any cross-socket transfer. Two protocol details matter
// enormously for the paper's results and are modeled explicitly:
//
//   - Migratory dirty forwarding: reading a line that is Modified in another
//     cache moves ownership to the reader. This is what lets a co-located
//     producer/consumer cache line be exchanged with two bus transactions
//     per roundtrip instead of four (Fig 8, Fig 17).
//
//   - Speculative home reads: when the reader is the line's home socket and
//     the data is dirty in the remote socket, the home memory controller
//     issues a useless speculative DRAM read, making reader-homed placement
//     slightly slower than writer-homed (Fig 7's rh/lh gap) — the reason
//     CC-NIC homes each descriptor ring on its writer.
//
// All methods must be called from simulation processes; the kernel's
// one-runnable-at-a-time guarantee makes the package lock-free by design.
package coherence

import (
	"fmt"

	"ccnic/internal/mem"
)

// State is a per-cache MESIF-style line state. Exclusive-clean is folded
// into Shared-with-sole-sharer (writes by the sole sharer upgrade silently),
// and Forward is implicit in the directory's sharer ordering.
type State uint8

// Line states.
const (
	Invalid State = iota
	Shared
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// entry is one resident cache line; entries form an intrusive LRU list.
type entry struct {
	line       mem.Addr
	state      State
	prev, next *entry
}

// Cache is a capacity-limited, fully-associative LRU cache of 64B lines.
// It models either a core's private L2 or a socket's shared LLC.
type Cache struct {
	name   string
	socket int
	isLLC  bool
	capAct int // capacity in lines
	n      int // resident lines
	// slots is the residency index: the resident entry of each touched
	// line, or nil.
	slots lineTable[*entry]
	// LRU list: head.next is most-recent, head.prev is least-recent.
	head entry
	// free recycles evicted entries (singly linked via next), so a cache
	// that has reached steady state allocates nothing per insert/evict.
	free *entry
	// slab holds entries carved but not yet handed out: a cache in a short
	// run rarely fills, so most inserts take a fresh entry, and the slab
	// makes that one allocation per entrySlab of them.
	slab []entry
	sys  *System
}

func newCache(sys *System, name string, socket int, capBytes int64, isLLC bool) *Cache {
	c := &Cache{
		name:   name,
		socket: socket,
		isLLC:  isLLC,
		capAct: int(capBytes / mem.LineSize),
		sys:    sys,
	}
	c.head.next = &c.head
	c.head.prev = &c.head
	return c
}

// Name returns the cache's debug name.
func (c *Cache) Name() string { return c.name }

// Socket returns the socket the cache belongs to.
func (c *Cache) Socket() int { return c.socket }

// Len returns the number of resident lines.
func (c *Cache) Len() int { return c.n }

// get returns the entry for line and promotes it to most-recent, or nil.
//
//ccnic:noalloc
func (c *Cache) get(line mem.Addr) *entry {
	e := c.peek(line)
	if e != nil {
		c.unlink(e)
		c.pushFront(e)
	}
	return e
}

// peek returns the entry without touching recency, or nil. It never
// materializes index memory for a line the cache has not held.
//
//ccnic:noalloc
func (c *Cache) peek(line mem.Addr) *entry {
	if s := c.slots.peek(line); s != nil {
		return *s
	}
	return nil
}

// insertMiss adds a line in the given state, evicting the LRU line if full.
// The caller must have just observed the line to be absent (via get or peek
// returning nil) and must have updated the directory for the inserted line;
// insertMiss handles directory maintenance for the victim only. Residency
// changes to an already-present line go through touch instead.
//
//ccnic:noalloc
func (c *Cache) insertMiss(line mem.Addr, st State) {
	for c.n >= c.capAct {
		c.evictLRU()
	}
	e := c.alloc()
	e.line, e.state = line, st
	*c.slots.at(line) = e
	c.n++
	c.pushFront(e)
}

// touch updates a resident line's state in place and refreshes its recency,
// reporting whether the line was resident. It replaces drop+insert pairs,
// which cost three map operations and an entry recycle.
//
//ccnic:noalloc
func (c *Cache) touch(line mem.Addr, st State) bool {
	e := c.get(line)
	if e == nil {
		return false
	}
	e.state = st
	return true
}

// entrySlab is how many entries a cache carves per slab allocation.
const entrySlab = 64

// alloc takes an entry from the freelist, or else carves a fresh one from
// the slab.
//
//ccnic:noalloc
func (c *Cache) alloc() *entry {
	if e := c.free; e != nil {
		c.free = e.next
		e.next = nil
		return e
	}
	if len(c.slab) == 0 {
		c.slab = make([]entry, entrySlab) //ccnic:alloc-ok first fills, once per entrySlab of them
	}
	e := &c.slab[0]
	c.slab = c.slab[1:]
	return e
}

// recycle pushes an unlinked entry onto the freelist.
//
//ccnic:noalloc
func (c *Cache) recycle(e *entry) {
	e.prev = nil
	e.next = c.free
	c.free = e
}

// drop removes a line without writeback bookkeeping (invalidation).
//
//ccnic:noalloc
func (c *Cache) drop(line mem.Addr) {
	s := c.slots.peek(line)
	if s == nil {
		return
	}
	if e := *s; e != nil {
		c.unlink(e)
		*s = nil
		c.n--
		c.recycle(e)
	}
}

// evictLRU removes the least-recently-used line, handing dirty victims to
// the system's writeback path.
//
//ccnic:noalloc
func (c *Cache) evictLRU() {
	e := c.head.prev
	if e == &c.head {
		panic("coherence: evict on empty cache")
	}
	c.unlink(e)
	*c.slots.at(e.line) = nil
	c.n--
	line, st := e.line, e.state
	c.recycle(e)
	c.sys.evicted(c, line, st)
}

//ccnic:noalloc
func (c *Cache) pushFront(e *entry) {
	e.next = c.head.next
	e.prev = &c.head
	c.head.next.prev = e
	c.head.next = e
}

//ccnic:noalloc
func (c *Cache) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// forEach visits all resident lines in recency order (for invariant checks
// in tests), walking the LRU list — every resident entry is on it.
func (c *Cache) forEach(fn func(line mem.Addr, st State)) {
	for e := c.head.next; e != &c.head; e = e.next {
		fn(e.line, e.state)
	}
}
