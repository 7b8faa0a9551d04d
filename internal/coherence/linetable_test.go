package coherence

import (
	"fmt"
	"runtime"
	"testing"

	"ccnic/internal/mem"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// tableNodes counts a table's materialized mid nodes and leaves.
func tableNodes(t *lineTable) (mids, leaves int) {
	for _, top := range t.top {
		for _, m := range top {
			if m == nil {
				continue
			}
			mids++
			for _, lf := range m {
				if lf != nil {
					leaves++
				}
			}
		}
	}
	return mids, leaves
}

// TestLineTableForEachAddressOrder touches lines out of order across both
// homes, several mid nodes and several leaves, and requires forEach to visit
// every materialized slot in strictly ascending address order — the order
// CheckInvariants' first error and the CXL filter scan report in.
func TestLineTableForEachAddressOrder(t *testing.T) {
	const mid = midLeaves * leafLines
	touched := []mem.Addr{
		mem.LineAt(1, 5),
		mem.LineAt(0, 3*mid+leafLines+2),
		mem.LineAt(0, 70),
		mem.LineAt(1, mid+9),
		mem.LineAt(0, 1),
		mem.LineAt(0, 3*mid),
	}
	var tab lineTable
	for i, line := range touched {
		tab.at(line).pendingUntil = sim.Time(i + 1)
	}
	var marks []sim.Time
	var prev mem.Addr
	visited := 0
	tab.forEach(func(line mem.Addr, d *dirEntry) {
		if visited > 0 && line <= prev {
			t.Fatalf("forEach visited %#x after %#x", line, prev)
		}
		prev = line
		visited++
		if d.pendingUntil != 0 {
			if got := tab.peek(line); got != d {
				t.Fatalf("forEach slot for %#x is not the table's slot", line)
			}
			marks = append(marks, d.pendingUntil)
		}
	})
	want := []sim.Time{5, 3, 6, 2, 1, 4} // touched, sorted by (home, index)
	if len(marks) != len(want) {
		t.Fatalf("forEach saw marks %v, want %v", marks, want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("forEach saw marks %v, want %v", marks, want)
		}
	}
	if _, leaves := tableNodes(&tab); visited != leaves*leafLines {
		t.Errorf("forEach visited %d slots, want %d (every slot of %d leaves)", visited, leaves*leafLines, leaves)
	}
}

// TestLineTableSlotsStable requires a slot's address to survive growth of
// every level: the top-level slice, new mid nodes and fresh slabs.
func TestLineTableSlotsStable(t *testing.T) {
	var tab lineTable
	first := mem.LineAt(0, 0)
	p := tab.at(first)
	p.present = true
	for i := 1; i <= 4*slabLeaves; i++ {
		tab.at(mem.LineAt(0, i*leafLines))                   // new leaves, new slabs
		tab.at(mem.LineAt(0, i*16*midLeaves*leafLines+i))    // top-level growth
		tab.at(mem.LineAt(1, i*3*midLeaves*leafLines+i*100)) // the other home
	}
	if q := tab.at(first); q != p {
		t.Fatalf("slot moved: %p then %p", p, q)
	}
	if q := tab.peek(first); q != p || !q.present {
		t.Fatalf("peek returned %p (present=%v), want %p", q, q != nil && q.present, p)
	}
}

// TestReadOnlyLookupsDoNotMaterialize checks that the read-only paths —
// directory lookups, CheckLine, DeviceReadLine and cache peeks — leave an
// untouched, far-away line's span unmaterialized and allocate nothing, on
// both protocols. The directory is the only table: caches own no nodes.
func TestReadOnlyLookupsDoNotMaterialize(t *testing.T) {
	for _, pr := range []Protocol{ProtoUPI, ProtoCXL} {
		t.Run(pr.String(), func(t *testing.T) {
			k := sim.New()
			s := NewSystemProto(k, platform.ICX(), pr)
			host := s.NewAgent(0, "host")
			nic := s.NewAgent(1, "nic")
			near := s.Space().AllocLines(0, 4)
			k.Spawn("warm", func(p *sim.Proc) {
				host.Write(p, near, 8)
				nic.Read(p, near, 8)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			nodes := func() int {
				m, l := tableNodes(&s.dir)
				return m + l
			}
			before := nodes()
			for _, far := range []mem.Addr{mem.LineAt(0, 1<<30), mem.LineAt(1, 1<<28), near + 64*mem.LineSize} {
				allocs := testing.AllocsPerRun(10, func() {
					if s.lookup(far) != nil || host.l2.peek(far) != nil || s.llc[1].peek(far) != nil {
						t.Fatalf("untouched line %#x has state", far)
					}
					if err := s.CheckLine(far); err != nil {
						t.Fatal(err)
					}
					s.DeviceReadLine(far)
				})
				if allocs != 0 {
					t.Errorf("read-only lookups of %#x allocate %v times", far, allocs)
				}
			}
			if after := nodes(); after != before {
				t.Errorf("read-only lookups materialized %d table nodes", after-before)
			}
		})
	}
}

// TestLineTableMemoryPerTouchedLine guards the point of the sparse layout:
// touching lines a stride apart on a fresh system must cost memory per line
// touched, not per span of address space. The 2KB row is the unoptimized
// interface's layout, one 64B packet per 2KB buffer; 64-line leaves cost
// about 2.3KB per line there, flat 256KB pages about 57KB per line at the
// 64KB stride.
func TestLineTableMemoryPerTouchedLine(t *testing.T) {
	const n = 256
	for _, c := range []struct {
		stride int
		max    uint64 // bytes allocated per touched line
	}{
		{128, 192},
		{2 << 10, 640},
		{64 << 10, 1280},
	} {
		t.Run(fmt.Sprintf("stride%d", c.stride), func(t *testing.T) {
			k := sim.New()
			s := NewSystem(k, platform.ICX())
			host := s.NewAgent(0, "host")
			nic := s.NewAgent(1, "nic")
			base := s.Space().Alloc(0, n*c.stride, mem.Addr(c.stride))
			var bytes uint64
			k.Spawn("touch", func(p *sim.Proc) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < n; i++ {
					line := base + mem.Addr(i*c.stride)
					host.Write(p, line, 8)
					nic.Read(p, line, 8)
				}
				runtime.ReadMemStats(&after)
				bytes = after.TotalAlloc - before.TotalAlloc
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			per := bytes / n
			t.Logf("%d B allocated per touched line", per)
			if per > c.max {
				t.Errorf("touching a line %d B from the last allocates %d B, want at most %d B", c.stride, per, c.max)
			}
		})
	}
}

// TestFirstFillsAllocatePerSlab requires first touches to allocate per
// slab, not per line: n fresh slots of a line table cost one leaf slab per
// slabLeaves leaves plus one mid node per midLeaves leaves, and n first
// fills of a fresh cache, through System.fill into a fresh directory, add
// one entry slab per entrySlab entries.
func TestFirstFillsAllocatePerSlab(t *testing.T) {
	const n = 4096
	leaves := n / leafLines
	tableMax := float64(leaves/slabLeaves + leaves/midLeaves + 8)
	t.Run("table", func(t *testing.T) {
		allocs := testing.AllocsPerRun(5, func() {
			var tab lineTable
			for i := 0; i < n; i++ {
				tab.at(mem.LineAt(0, i)).present = true
			}
		})
		if allocs > tableMax {
			t.Errorf("%d first touches allocate %v objects, want at most %v", n, allocs, tableMax)
		}
	})
	t.Run("cache", func(t *testing.T) {
		s := NewSystem(sim.New(), platform.ICX())
		max := tableMax + n/entrySlab
		allocs := testing.AllocsPerRun(5, func() {
			s.dir = lineTable{}
			a := &Agent{sys: s, l2: newCache(s, "l2", 0, n*mem.LineSize, false)}
			for i := 0; i < n; i++ {
				line := mem.LineAt(0, i)
				s.fill(s.ent(line), a, line, Modified)
			}
		})
		if allocs > max {
			t.Errorf("%d first fills allocate %v objects, want at most %v", n, allocs, max)
		}
	})
}
