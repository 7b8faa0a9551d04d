package dsa

import (
	"testing"

	"ccnic/internal/coherence"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

func TestCopyCompletes(t *testing.T) {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.SPR())
	eng := NewLanes(sys, 0, "dsa0", 1)
	core := sys.NewAgent(0, "core")
	src := sys.Space().Alloc(0, 8192, 0)
	dst := sys.Space().Alloc(1, 8192, 0)
	var submitCost, totalCost sim.Time
	k.Spawn("app", func(p *sim.Proc) {
		t0 := p.Now()
		c := eng.Submit(p, core, src, dst, 8192)
		submitCost = p.Now() - t0
		c.Wait(p, core)
		totalCost = p.Now() - t0
		eng.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Completed() != 1 {
		t.Fatalf("completed = %d", eng.Completed())
	}
	// The submitting core pays only the enqueue cost.
	if submitCost > 100*sim.Nanosecond {
		t.Errorf("submit cost %v; offload should be cheap for the core", submitCost)
	}
	// The copy itself includes engine startup plus the streamed transfer.
	if totalCost < startupLat {
		t.Errorf("total %v below engine startup %v", totalCost, startupLat)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOffloadFreesTheCore(t *testing.T) {
	// While the engine copies, the core can do other work; a CPU copy of
	// the same data would have occupied it for the full transfer.
	k := sim.New()
	sys := coherence.NewSystem(k, platform.SPR())
	eng := NewLanes(sys, 0, "dsa0", 1)
	core := sys.NewAgent(0, "core")
	src := sys.Space().Alloc(0, 64<<10, 0)
	dst := sys.Space().Alloc(1, 64<<10, 0)
	var cpuCopy, overlap sim.Time
	k.Spawn("app", func(p *sim.Proc) {
		// Reference: the core does the copy itself.
		t0 := p.Now()
		core.StreamRead(p, src, 64<<10)
		core.StreamWrite(p, dst, 64<<10)
		cpuCopy = p.Now() - t0

		// Offload: submit, do equivalent compute, then reap.
		t0 = p.Now()
		c := eng.Submit(p, core, src, dst, 64<<10)
		core.Exec(p, cpuCopy) // the freed-up time spent on real work
		c.Wait(p, core)
		overlap = p.Now() - t0
		eng.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Compute and copy overlapped: far less than serializing both.
	if overlap > cpuCopy+cpuCopy/2 {
		t.Errorf("offloaded copy+compute took %v; cpu copy alone %v — no overlap", overlap, cpuCopy)
	}
}

func TestQueueing(t *testing.T) {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	eng := NewLanes(sys, 1, "dsa1", 1)
	core := sys.NewAgent(0, "core")
	k.Spawn("app", func(p *sim.Proc) {
		var cs []*Completion
		for i := 0; i < 4; i++ {
			src := sys.Space().Alloc(0, 4096, 0)
			dst := sys.Space().Alloc(0, 4096, 0)
			cs = append(cs, eng.Submit(p, core, src, dst, 4096))
		}
		for _, c := range cs {
			c.Wait(p, core)
		}
		eng.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Completed() != 4 {
		t.Fatalf("completed = %d, want 4", eng.Completed())
	}
}

func TestInvalidSizePanics(t *testing.T) {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	eng := NewLanes(sys, 0, "dsa0", 1)
	core := sys.NewAgent(0, "core")
	k.Spawn("app", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on zero-size copy")
			}
			eng.Stop()
		}()
		eng.Submit(p, core, 0x1000, 0x2000, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
