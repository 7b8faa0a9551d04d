// Package mem manages the simulated physical address space of the
// dual-socket machine. Addresses are abstract: no data is stored behind
// them. The coherence model tracks per-line cache state keyed by address,
// and higher layers (rings, buffer pools) carry their payload metadata in Go
// objects alongside the addresses.
//
// The NUMA home of an address is encoded in a single address bit so that
// homing lookups are O(1) and allocation needs no range table.
package mem

import "fmt"

// Addr is a simulated physical address.
type Addr uint64

// LineSize is the cache line (and coherence granule) size in bytes.
const LineSize = 64

// homeBit is the address bit that selects the home socket.
const homeBit = 40

// base is the lowest address handed out on each socket; zero is reserved so
// that the zero Addr can mean "no address".
const base Addr = 1 << 20

// Home returns the socket (0 or 1) whose memory controller owns the address.
//
//ccnic:noalloc
func Home(a Addr) int { return int(a>>homeBit) & 1 }

// LineOf returns the address of the cache line containing a.
//
//ccnic:noalloc
func LineOf(a Addr) Addr { return a &^ (LineSize - 1) }

// LineCount returns how many cache lines the region [a, a+size) touches.
func LineCount(a Addr, size int) int {
	if size <= 0 {
		return 0
	}
	first := LineOf(a)
	last := LineOf(a + Addr(size) - 1)
	return int((last-first)/LineSize) + 1
}

// AppendLines appends each cache line the region [a, a+size) touches to
// dst and returns the extended slice.
//
//ccnic:noalloc
func AppendLines(dst []Addr, a Addr, size int) []Addr {
	if size <= 0 {
		return dst
	}
	last := LineOf(a + Addr(size) - 1)
	for line := LineOf(a); line <= last; line += LineSize {
		dst = append(dst, line)
	}
	return dst
}

// Lines calls fn for each cache line the region [a, a+size) touches.
//
//ccnic:noalloc
func Lines(a Addr, size int, fn func(line Addr)) {
	if size <= 0 {
		return
	}
	last := LineOf(a + Addr(size) - 1)
	for line := LineOf(a); line <= last; line += LineSize {
		fn(line)
	}
}

// LineIndex returns the home socket of a line address and the line's dense
// index within that socket's allocation arena (0 for the first allocatable
// line). Because Space is a bump allocator, indices are small and clustered,
// which lets per-line metadata live in radix tables instead of maps.
//
//ccnic:noalloc
func LineIndex(a Addr) (home, idx int) {
	return int(a>>homeBit) & 1, int((a&^(1<<homeBit) - base) / LineSize)
}

// LineAt is the inverse of LineIndex: the line address for a dense index on
// the given socket.
//
//ccnic:noalloc
func LineAt(home, idx int) Addr {
	return (base + Addr(idx)*LineSize) | Addr(home)<<homeBit
}

// Space is a two-socket bump allocator. It is not safe for concurrent use;
// all model code runs under the simulation kernel.
type Space struct {
	next [2]Addr
}

// NewSpace returns an empty address space.
func NewSpace() *Space {
	var s Space
	s.next[0] = base
	s.next[1] = base | 1<<homeBit
	return &s
}

// Alloc reserves size bytes homed on the given socket, aligned to align
// (which must be a power of two; 0 means cache-line alignment). Allocations
// never straddle the home-bit boundary.
func (s *Space) Alloc(home int, size int, align Addr) Addr {
	if home != 0 && home != 1 {
		panic(fmt.Sprintf("mem: invalid home socket %d", home))
	}
	if size <= 0 {
		panic("mem: allocation size must be positive")
	}
	if align == 0 {
		align = LineSize
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	a := (s.next[home] + align - 1) &^ (align - 1)
	s.next[home] = a + Addr(size)
	if Home(a) != home || Home(s.next[home]-1) != home {
		panic("mem: address space for socket exhausted")
	}
	return a
}

// AllocLines reserves n cache lines homed on the given socket and returns
// the line-aligned base address.
func (s *Space) AllocLines(home, n int) Addr {
	return s.Alloc(home, n*LineSize, LineSize)
}

// Used returns the number of bytes allocated on the given socket.
func (s *Space) Used(home int) int64 {
	return int64(s.next[home]&^(1<<homeBit) - base)
}
