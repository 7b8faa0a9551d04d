package bufpool

import (
	"math/rand"
	"testing"
	"unsafe"

	"ccnic/internal/coherence"
	"ccnic/internal/mem"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// fixture runs fn with a pool built from cfg defaults overridden by mutate.
func fixture(t *testing.T, mutate func(*Config), fn func(p *sim.Proc, pl *Pool, host, nic *Port)) {
	t.Helper()
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	cfg := Config{
		Sys:       sys,
		Home:      0,
		BigCount:  32,
		BigSize:   4096,
		Shared:    true,
		Recycle:   true,
		SmallBufs: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	pl := New(cfg)
	hostA := sys.NewAgent(0, "host")
	nicA := sys.NewAgent(1, "nic")
	host := pl.Attach(hostA)
	var nic *Port
	if cfg.Shared {
		nic = pl.Attach(nicA)
	}
	k.Spawn("test", func(p *sim.Proc) { fn(p, pl, host, nic) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := pl.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestAllocFreeRoundtrip(t *testing.T) {
	fixture(t, nil, func(p *sim.Proc, pl *Pool, host, nic *Port) {
		b := host.Alloc(p, 1500)
		if b == nil {
			t.Fatal("alloc failed")
		}
		if b.Small || b.Cap() != 4096 {
			t.Errorf("1500B request got Small=%v Cap=%d", b.Small, b.Cap())
		}
		if pl.Outstanding() != 1 {
			t.Errorf("outstanding = %d", pl.Outstanding())
		}
		host.Free(p, b)
		if pl.Outstanding() != 0 {
			t.Errorf("outstanding after free = %d", pl.Outstanding())
		}
	})
}

func TestSmallBufferSubdivision(t *testing.T) {
	fixture(t, nil, func(p *sim.Proc, pl *Pool, host, nic *Port) {
		b := host.Alloc(p, 64)
		if b == nil || !b.Small || b.Cap() != SmallSize {
			t.Fatalf("64B request got %+v, want small %dB buffer", b, SmallSize)
		}
		host.Free(p, b)
	})
}

func TestSmallBufsDisabledUsesBig(t *testing.T) {
	fixture(t, func(c *Config) { c.SmallBufs = false }, func(p *sim.Proc, pl *Pool, host, nic *Port) {
		b := host.Alloc(p, 64)
		if b == nil || b.Small {
			t.Fatalf("with SmallBufs off, 64B request got %+v", b)
		}
		host.Free(p, b)
	})
}

func TestRecyclingReturnsMostRecentlyFreed(t *testing.T) {
	fixture(t, nil, func(p *sim.Proc, pl *Pool, host, nic *Port) {
		a := host.Alloc(p, 64)
		b := host.Alloc(p, 64)
		host.Free(p, a)
		host.Free(p, b) // b freed last => LIFO top
		c := host.Alloc(p, 64)
		if c.Addr != b.Addr {
			t.Errorf("recycle returned %#x, want most-recently-freed %#x", c.Addr, b.Addr)
		}
		host.Free(p, c)
		if a.Addr == b.Addr {
			t.Error("distinct allocations shared an address")
		}
	})
}

func TestRecyclingIsCheaperThanCentral(t *testing.T) {
	var recycled, central sim.Time
	fixture(t, nil, func(p *sim.Proc, pl *Pool, host, nic *Port) {
		b := host.Alloc(p, 64)
		host.Free(p, b)
		start := p.Now()
		b = host.Alloc(p, 64)
		recycled = p.Now() - start
		host.Free(p, b)
	})
	fixture(t, func(c *Config) { c.Recycle = false }, func(p *sim.Proc, pl *Pool, host, nic *Port) {
		b := host.Alloc(p, 64)
		host.Free(p, b)
		start := p.Now()
		b = host.Alloc(p, 64)
		central = p.Now() - start
		host.Free(p, b)
	})
	if recycled >= central {
		t.Errorf("recycled alloc (%v) should be cheaper than central alloc (%v)", recycled, central)
	}
}

func TestNonSequentialFillScattersAddresses(t *testing.T) {
	adjacent := func(seq bool) int {
		var count int
		fixture(t, func(c *Config) { c.Sequential = seq; c.Recycle = false }, func(p *sim.Proc, pl *Pool, host, nic *Port) {
			var prev mem.Addr
			for i := 0; i < 16; i++ {
				b := host.Alloc(p, 64)
				if i > 0 {
					d := int64(b.Addr) - int64(prev)
					if d < 0 {
						d = -d
					}
					if d <= 256 {
						count++
					}
				}
				prev = b.Addr
			}
		})
		return count
	}
	if seqAdj := adjacent(true); seqAdj < 10 {
		t.Errorf("sequential fill: only %d adjacent pairs, expected mostly adjacent", seqAdj)
	}
	if scatAdj := adjacent(false); scatAdj > 2 {
		t.Errorf("non-sequential fill: %d adjacent pairs, want ~0", scatAdj)
	}
}

func TestNonSharedRejectsDevicePort(t *testing.T) {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	pl := New(Config{Sys: sys, BigCount: 4, BigSize: 4096})
	nicA := sys.NewAgent(1, "nic")
	defer func() {
		if recover() == nil {
			t.Error("expected panic attaching device port to non-shared pool")
		}
	}()
	pl.Attach(nicA)
}

func TestExhaustionReturnsNil(t *testing.T) {
	fixture(t, func(c *Config) { c.BigCount = 2; c.SmallBufs = false; c.Recycle = false },
		func(p *sim.Proc, pl *Pool, host, nic *Port) {
			a := host.Alloc(p, 1500)
			b := host.Alloc(p, 1500)
			if a == nil || b == nil {
				t.Fatal("expected two successful allocs")
			}
			if c := host.Alloc(p, 1500); c != nil {
				t.Error("expected nil on exhaustion")
			}
			host.Free(p, a)
			host.Free(p, b)
		})
}

func TestAllocBurst(t *testing.T) {
	fixture(t, nil, func(p *sim.Proc, pl *Pool, host, nic *Port) {
		out := make([]*Buf, 8)
		n := host.AllocBurst(p, 64, out)
		if n != 8 {
			t.Fatalf("burst = %d, want 8", n)
		}
		host.FreeBurst(p, out)
	})
}

func TestCrossSideFreeAlloc(t *testing.T) {
	// NIC frees a buffer the host allocated; NIC's next alloc recycles it
	// (the TX->RX recycling path).
	fixture(t, nil, func(p *sim.Proc, pl *Pool, host, nic *Port) {
		b := host.Alloc(p, 64)
		nic.Free(p, b)
		c := nic.Alloc(p, 64)
		if c.Addr != b.Addr {
			t.Errorf("NIC alloc = %#x, want recycled %#x", c.Addr, b.Addr)
		}
		nic.Free(p, c)
	})
}

func TestDoubleFreePanics(t *testing.T) {
	fixture(t, nil, func(p *sim.Proc, pl *Pool, host, nic *Port) {
		b := host.Alloc(p, 64)
		host.Free(p, b)
		defer func() {
			if recover() == nil {
				t.Error("expected double-free panic")
			}
			// The failed Free mutated nothing, so state stays consistent.
		}()
		host.Free(p, b)
	})
}

// TestBufSize pins Buf at 64 bytes: every pool builds one per buffer, and
// this array is most of a testbed's set-up allocation.
func TestBufSize(t *testing.T) {
	if got := unsafe.Sizeof(Buf{}); got != 64 {
		t.Errorf("Buf is %d bytes, want 64", got)
	}
}

func TestBufMetadata(t *testing.T) {
	b := &Buf{Len: 100, ExtLen: 400}
	if b.TotalLen() != 500 {
		t.Errorf("TotalLen = %d", b.TotalLen())
	}
	b.Seq, b.Born = 7, 3
	b.ResetMeta()
	if b.Len != 0 || b.Seq != 0 || b.Born != 0 || b.ExtLen != 0 {
		t.Error("ResetMeta left residue")
	}
}

func TestFillOrderProperties(t *testing.T) {
	for _, n := range []int{1, 2, 7, 32, 100} {
		for _, seq := range []bool{true, false} {
			step := fillStep(n, seq)
			seen := make([]bool, n)
			for k := 0; k < n; k++ {
				if i := k * step % n; seen[i] {
					t.Fatalf("fillStep(%d,%v) = %d: order is not a permutation", n, seq, step)
				} else {
					seen[i] = true
				}
			}
			if !seq && n > 7 && step == 1 {
				t.Errorf("fillStep(%d,false) = 1: non-sequential fill must scatter", n)
			}
		}
	}
}

// TestConservationUnderChurn hammers the pool from both sides with random
// alloc/free and verifies conservation and coherence invariants.
func TestConservationUnderChurn(t *testing.T) {
	fixture(t, nil, func(p *sim.Proc, pl *Pool, host, nic *Port) {
		rng := rand.New(rand.NewSource(11))
		var live []*Buf
		ports := []*Port{host, nic}
		for i := 0; i < 5000; i++ {
			pt := ports[rng.Intn(2)]
			if rng.Intn(2) == 0 || len(live) == 0 {
				size := 64
				if rng.Intn(3) == 0 {
					size = 1500
				}
				if b := pt.Alloc(p, size); b != nil {
					live = append(live, b)
				}
			} else {
				j := rng.Intn(len(live))
				pt.Free(p, live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if i%1000 == 0 {
				if err := pl.CheckConservation(); err != nil {
					t.Fatalf("iteration %d: %v", i, err)
				}
			}
		}
		for _, b := range live {
			host.Free(p, b)
		}
	})
}

// TestSpillPreservesConservation regression-tests the recycle-stack spill
// path: freeing far more buffers than the stack depth must not duplicate or
// lose buffers (this once hid a slice-aliasing bug).
func TestSpillPreservesConservation(t *testing.T) {
	fixture(t, func(c *Config) { c.BigCount = 64; c.RecycleDepth = 8 },
		func(p *sim.Proc, pl *Pool, host, nic *Port) {
			var live []*Buf
			for i := 0; i < 60; i++ {
				if b := host.Alloc(p, 1500); b != nil {
					live = append(live, b)
				}
			}
			for _, b := range live {
				host.Free(p, b) // forces repeated spills
			}
			if err := pl.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			// Every buffer must be allocatable again exactly once.
			seen := map[mem.Addr]bool{}
			for i := 0; i < 60; i++ {
				b := host.Alloc(p, 1500)
				if b == nil {
					t.Fatalf("alloc %d failed after spill cycle", i)
				}
				if seen[b.Addr] {
					t.Fatalf("buffer %#x handed out twice", b.Addr)
				}
				seen[b.Addr] = true
				live[i] = b
			}
			for _, b := range live {
				host.Free(p, b)
			}
		})
}

func TestShardStealing(t *testing.T) {
	// Drain the host shard entirely; its next allocation must steal from
	// the NIC-side shard rather than fail.
	fixture(t, func(c *Config) { c.BigCount = 16; c.SmallBufs = false; c.Recycle = false },
		func(p *sim.Proc, pl *Pool, host, nic *Port) {
			var live []*Buf
			for {
				b := host.Alloc(p, 1500)
				if b == nil {
					break
				}
				live = append(live, b)
			}
			if len(live) != 16 {
				t.Fatalf("allocated %d of 16 before exhaustion", len(live))
			}
			// Free half through the NIC port: they land in its shard.
			nic.FreeBurst(p, live[:8])
			live = live[8:]
			// Host allocations must now steal from the NIC shard.
			for i := 0; i < 8; i++ {
				b := host.Alloc(p, 1500)
				if b == nil {
					t.Fatalf("steal failed at %d", i)
				}
				live = append(live, b)
			}
			host.FreeBurst(p, live)
		})
}

func TestFIFOCyclesFootprint(t *testing.T) {
	// Without recycling, the pool is a FIFO ring: consecutive allocations
	// walk the whole buffer set instead of reusing the hottest one.
	fixture(t, func(c *Config) { c.BigCount = 8; c.SmallBufs = false; c.Recycle = false; c.Sequential = true },
		func(p *sim.Proc, pl *Pool, host, nic *Port) {
			seen := map[mem.Addr]bool{}
			for i := 0; i < 8; i++ {
				b := host.Alloc(p, 1500)
				seen[b.Addr] = true
				host.Free(p, b)
			}
			if len(seen) < 4 {
				t.Errorf("FIFO pool reused aggressively: only %d distinct buffers in 8 allocs", len(seen))
			}
		})
	// With recycling, the same loop reuses one hot buffer.
	fixture(t, func(c *Config) { c.BigCount = 8; c.SmallBufs = false; c.Recycle = true },
		func(p *sim.Proc, pl *Pool, host, nic *Port) {
			seen := map[mem.Addr]bool{}
			for i := 0; i < 8; i++ {
				b := host.Alloc(p, 1500)
				seen[b.Addr] = true
				host.Free(p, b)
			}
			if len(seen) != 1 {
				t.Errorf("LIFO recycling should reuse one buffer, saw %d", len(seen))
			}
		})
}
