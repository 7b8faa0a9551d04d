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

// entry is one resident cache line, held by cache c. It is linked on c's
// LRU list and named by the line's directory slot, as its owner or as a
// sharer: the slot is the only residency index, so the cache and the
// directory share the entry. Entries are recycled through c's free list.
type entry struct {
	line       mem.Addr
	state      State
	c          *Cache
	prev, next *entry
}

// resident reports whether the entry is linked on its cache's LRU list
// holding line.
//
//ccnic:noalloc
func (e *entry) resident(line mem.Addr) bool { return e.prev != nil && e.line == line }

// Cache is a capacity-limited, fully-associative LRU cache of 64B lines.
// It models either a core's private L2 or a socket's shared LLC. It keeps
// no index of its own: a line's directory slot names each holder's entry.
type Cache struct {
	name   string
	socket int
	isLLC  bool
	capAct int // capacity in lines
	n      int // resident lines
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

// peek returns the cache's entry for line without touching recency, or nil:
// a directory peek, then a scan of the holders it names. It never
// materializes directory memory for a line nothing has touched.
//
//ccnic:noalloc
func (c *Cache) peek(line mem.Addr) *entry {
	if d := c.sys.dir.peek(line); d != nil {
		return d.find(c)
	}
	return nil
}

// entrySlab is how many entries a cache carves per slab allocation.
const entrySlab = 64

// newEntry returns an unlinked entry for line in state st: from the
// freelist, or else carved from the slab. The caller names it in the line's
// directory slot, then links it.
//
//ccnic:noalloc
func (c *Cache) newEntry(line mem.Addr, st State) *entry {
	e := c.free
	if e != nil {
		c.free = e.next
		e.next = nil
	} else {
		if len(c.slab) == 0 {
			c.slab = make([]entry, entrySlab) //ccnic:alloc-ok first fills, once per entrySlab of them
		}
		e = &c.slab[0]
		c.slab = c.slab[1:]
	}
	e.line, e.state, e.c = line, st, c
	return e
}

// link makes e resident as the most-recent line, evicting LRU lines while
// the cache is full. The line's directory slot must already name e: an
// eviction chain can reach that slot.
//
//ccnic:noalloc
func (c *Cache) link(e *entry) {
	for c.n >= c.capAct {
		c.evictLRU()
	}
	c.n++
	c.pushFront(e)
}

// promote makes a resident entry the most-recent line.
//
//ccnic:noalloc
func (c *Cache) promote(e *entry) {
	c.unlink(e)
	c.pushFront(e)
}

// drop removes a resident entry without writeback bookkeeping
// (invalidation) and recycles it; the caller updates the directory.
//
//ccnic:noalloc
func (c *Cache) drop(e *entry) {
	c.unlink(e)
	c.n--
	c.recycle(e)
}

// recycle pushes an unlinked entry onto the freelist.
//
//ccnic:noalloc
func (c *Cache) recycle(e *entry) {
	e.prev = nil
	e.next = c.free
	c.free = e
}

// evictLRU removes the least-recently-used line, handing the victim to the
// system's eviction path, which takes it out of the directory.
//
//ccnic:noalloc
func (c *Cache) evictLRU() {
	e := c.head.prev
	if e == &c.head {
		panic("coherence: evict on empty cache")
	}
	c.unlink(e)
	c.n--
	c.sys.evicted(e)
	c.recycle(e)
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
