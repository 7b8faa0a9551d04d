package sim

import "testing"

// TestScratchOverlappingUsers has a second process take the scratch while
// the first still walks its list across yields: the second must build its
// list in fresh memory, leaving the first's list intact.
func TestScratchOverlappingUsers(t *testing.T) {
	k := New()
	var x Scratch[int]
	x.Put(make([]int, 0, 8))
	var walked []int
	k.Spawn("first", func(p *Proc) {
		s := append(x.Take(), 1, 2, 3)
		for _, v := range s {
			p.Sleep(Nanosecond) // the second process runs here
			walked = append(walked, v)
		}
		x.Put(s)
	})
	k.Spawn("second", func(p *Proc) {
		s := x.Take()
		if cap(s) != 0 {
			t.Errorf("second user got the first's slice (cap %d)", cap(s))
		}
		x.Put(append(s, 7, 8, 9))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(walked) != 3 || walked[0] != 1 || walked[1] != 2 || walked[2] != 3 {
		t.Fatalf("first user walked %v, want [1 2 3]", walked)
	}
	if got := x.Take(); cap(got) < 3 || len(got) != 0 {
		t.Fatalf("Take after Put returned len %d cap %d, want an empty slice with capacity", len(got), cap(got))
	}
	if allocs := testing.AllocsPerRun(10, func() { x.Put(append(x.Take(), 4, 5)) }); allocs != 0 {
		t.Errorf("a warm Take/Put cycle allocates %v times", allocs)
	}
}
