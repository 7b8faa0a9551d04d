package coherence

import "ccnic/internal/mem"

// Line-table geometry. A leaf holds the slots of leafLines consecutive lines
// (one 512B span of simulated memory); a mid node holds midLeaves leaf
// pointers (a 32KB span); each home's top level is a slice of mid nodes.
// Leaves are small because touched lines are sparse: a ring of 2KB buffers
// each holding one 64B packet touches one or two lines per buffer, and a
// 64-line leaf would materialize 64 slots for them. Leaves are carved
// slabLeaves at a time from a slab, so first touches cost one allocation
// per slab, not per leaf, and a slab is as large as eight 64-line leaves.
const (
	leafShift  = 3
	leafLines  = 1 << leafShift
	midShift   = 6
	midLeaves  = 1 << midShift
	slabLeaves = 64
)

type (
	lineLeaf [leafLines]dirEntry
	lineMid  [midLeaves]*lineLeaf
)

// lineTable is the directory's store of slots, indexed by mem.LineIndex: a
// two-level radix (mid nodes, then leaves) per home socket. It is the
// model's only per-line table: a slot names every cache holding its line.
// Memory grows with the lines actually touched rather than with the span of
// address space they lie in, and a slot's address never changes once
// materialized. The zero dirEntry is the slot of a line nothing has
// touched; the zero lineTable is empty and ready.
type lineTable struct {
	top  [2][]*lineMid
	slab []lineLeaf // carved but not yet handed out
}

// at returns the slot for a line, materializing its leaf (and mid node) on
// first touch.
//
//ccnic:noalloc
func (t *lineTable) at(line mem.Addr) *dirEntry {
	home, idx := mem.LineIndex(line)
	mids := t.top[home]
	mi := idx >> (leafShift + midShift)
	if mi >= len(mids) {
		// One make and a copy, with append's growth policy: under -race
		// the compiler leaves append(mids, make(...)...) unfused, which
		// allocates twice.
		if c := cap(mids); mi >= c {
			if c < 256 {
				c *= 2
			} else {
				c += (c + 768) / 4
			}
			grown := make([]*lineMid, mi+1, max(mi+1, c)) //ccnic:alloc-ok top-level growth, once per 32KB span
			copy(grown, mids)
			mids = grown
		}
		mids = mids[:mi+1]
		t.top[home] = mids
	}
	m := mids[mi]
	if m == nil {
		m = new(lineMid) //ccnic:alloc-ok first touch of a 32KB span
		mids[mi] = m
	}
	li := (idx >> leafShift) & (midLeaves - 1)
	lf := m[li]
	if lf == nil {
		if len(t.slab) == 0 {
			t.slab = make([]lineLeaf, slabLeaves) //ccnic:alloc-ok first touch of a 512B span, once per slabLeaves of them
		}
		lf = &t.slab[0]
		t.slab = t.slab[1:]
		m[li] = lf
	}
	return &lf[idx&(leafLines-1)]
}

// peek returns the slot for a line, or nil if its leaf was never
// materialized (every line in it is in the zero state). It never allocates.
//
//ccnic:noalloc
func (t *lineTable) peek(line mem.Addr) *dirEntry {
	home, idx := mem.LineIndex(line)
	mids := t.top[home]
	if mi := idx >> (leafShift + midShift); mi < len(mids) && mids[mi] != nil {
		if lf := mids[mi][(idx>>leafShift)&(midLeaves-1)]; lf != nil {
			return &lf[idx&(leafLines-1)]
		}
	}
	return nil
}

// forEach visits every materialized slot in address order, home 0 first
// (validation paths only; the hot path never iterates a table).
func (t *lineTable) forEach(fn func(line mem.Addr, d *dirEntry)) {
	for home, mids := range t.top {
		for mi, m := range mids {
			if m == nil {
				continue
			}
			for li, lf := range m {
				if lf == nil {
					continue
				}
				base := (mi<<midShift + li) << leafShift
				for i := range lf {
					fn(mem.LineAt(home, base+i), &lf[i])
				}
			}
		}
	}
}
