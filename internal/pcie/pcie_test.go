package pcie

import (
	"testing"

	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// run executes fn in one simulated process against a fresh ICX endpoint.
func run(t *testing.T, fn func(p *sim.Proc, e *Endpoint, c *CoreMMIO)) {
	t.Helper()
	k := sim.New()
	e := NewEndpoint(platform.ICX().PCIe)
	c := e.NewCore()
	k.Spawn("test", func(p *sim.Proc) { fn(p, e, c) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUCWriteSerialization(t *testing.T) {
	run(t, func(p *sim.Proc, e *Endpoint, c *CoreMMIO) {
		first := c.UCWrite(p, 8)
		if first != ucIssueCost {
			t.Errorf("first UC write = %v, want issue cost %v", first, ucIssueCost)
		}
		// An immediately-following UC write must wait out the window.
		second := c.UCWrite(p, 8)
		want := UCWriteWindow - ucIssueCost + ucIssueCost
		if second != want {
			t.Errorf("second UC write = %v, want %v", second, want)
		}
		// After a long gap the window is clear again.
		p.Sleep(2 * sim.Microsecond)
		third := c.UCWrite(p, 8)
		if third != ucIssueCost {
			t.Errorf("spaced UC write = %v, want %v", third, ucIssueCost)
		}
	})
}

// TestWCBufferExhaustion reproduces the Fig 3 knee: the first WCBuffers
// scattered stores are cheap; beyond that each store stalls on a flush.
func TestWCBufferExhaustion(t *testing.T) {
	plat := platform.ICX()
	run(t, func(p *sim.Proc, e *Endpoint, c *CoreMMIO) {
		nb := plat.WCBuffers
		var cheap, costly sim.Time
		for i := 0; i < nb; i++ {
			cheap += c.WCStore32(p, uint64(i), nb)
		}
		if cheap > sim.Time(nb)*2*sim.Nanosecond {
			t.Errorf("first %d stores cost %v, want ~%dns", nb, cheap, nb)
		}
		for i := nb; i < nb+16; i++ {
			costly += c.WCStore32(p, uint64(i), nb)
		}
		perStore := costly / 16
		if perStore < e.Params().WCFlushMMIO {
			t.Errorf("post-knee per-store = %v, want >= flush %v", perStore, e.Params().WCFlushMMIO)
		}
		if e.Stats().WCStalls != 16 {
			t.Errorf("WC stalls = %d, want 16", e.Stats().WCStalls)
		}
	})
}

func TestWCStoreMergesWithinRegion(t *testing.T) {
	run(t, func(p *sim.Proc, e *Endpoint, c *CoreMMIO) {
		c.WCStore32(p, 7, 24)
		cost := c.WCStore32(p, 7, 24) // same 64B region: merges
		if cost != sim.Nanosecond {
			t.Errorf("merged store = %v, want 1ns", cost)
		}
		if c.WCOpenBuffers() != 1 {
			t.Errorf("open buffers = %d, want 1", c.WCOpenBuffers())
		}
	})
}

// TestWCStreamBarrierAmortization reproduces the Fig 2 relationship: bigger
// writes per barrier yield higher throughput, approaching the fill rate.
func TestWCStreamBarrierAmortization(t *testing.T) {
	run(t, func(p *sim.Proc, e *Endpoint, c *CoreMMIO) {
		tput := func(size int) float64 {
			lat := c.WCStreamWrite(p, size, 11.5)
			return float64(size) / lat.Nanoseconds()
		}
		t64, t4k := tput(64), tput(4096)
		if t4k < 5*t64 {
			t.Errorf("4KB/barrier (%.2f B/ns) should be >5x 64B/barrier (%.2f B/ns)", t4k, t64)
		}
		if t4k > 11.5 {
			t.Errorf("throughput %.2f exceeds fill rate", t4k)
		}
	})
}

func TestDMAReadLatencyAndBandwidth(t *testing.T) {
	run(t, func(p *sim.Proc, e *Endpoint, c *CoreMMIO) {
		small := e.DMAReadAsync(p.Now(), 64) - p.Now()
		if small < e.Params().DMARoundTrip {
			t.Errorf("DMA read = %v, want >= roundtrip %v", small, e.Params().DMARoundTrip)
		}
		// Issue the large read on an idle link, so only its size differs.
		p.Sleep(small)
		large := e.DMAReadAsync(p.Now(), 4096) - p.Now()
		if large <= small {
			t.Error("larger DMA read should take longer")
		}
		st := e.Stats()
		if st.DMAReads != 2 || st.DMABytes[ToDevice] != 64+4096 {
			t.Errorf("stats = %+v", st)
		}
	})
}

func TestDMAWritePostedSemantics(t *testing.T) {
	run(t, func(p *sim.Proc, e *Endpoint, c *CoreMMIO) {
		t0 := p.Now()
		delivered := e.DMAWriteAsync(t0, 256)
		if want := t0 + e.serialize(256) + e.Params().OneWay; delivered != want {
			t.Errorf("delivered = %v, want serialization+one-way = %v", delivered, want)
		}
		// A posted write costs the issuing device process no time.
		if p.Now() != t0 {
			t.Errorf("device time = %v, want %v", p.Now(), t0)
		}
	})
}

func TestDMAWritesQueueOnLink(t *testing.T) {
	run(t, func(p *sim.Proc, e *Endpoint, c *CoreMMIO) {
		// Saturate ToHost with a huge write, then measure queueing.
		now := p.Now()
		e.DMAWriteAsync(now, 64<<10)
		drained := e.DMAWriteAsync(now, 64) - e.Params().OneWay
		if drained <= now+e.serialize(64<<10) {
			t.Errorf("second write left the link at %v, before the first drained", drained)
		}
		p.Sleep(drained - now)
		u := e.Utilization(ToHost, p.Now())
		if u <= 0.9 {
			t.Errorf("utilization = %v, want near 1", u)
		}
	})
}

func TestResetStats(t *testing.T) {
	run(t, func(p *sim.Proc, e *Endpoint, c *CoreMMIO) {
		c.UCWrite(p, 8)
		e.ResetStats()
		if e.Stats() != (Stats{}) {
			t.Error("ResetStats left residue")
		}
		if e.Utilization(ToHost, 0) != 0 {
			t.Error("utilization at t=0 must be 0")
		}
	})
}

func TestDMAAsyncPipelining(t *testing.T) {
	run(t, func(p *sim.Proc, e *Endpoint, c *CoreMMIO) {
		// Async reads issued back-to-back overlap: each completes one
		// serialization slot after the previous, not one roundtrip.
		t0 := p.Now()
		first := e.DMAReadAsync(t0, 256)
		second := e.DMAReadAsync(t0, 256)
		if second-first >= e.Params().DMARoundTrip {
			t.Errorf("async reads serialized by full roundtrips: %v apart", second-first)
		}
		if first < t0+e.Params().DMARoundTrip {
			t.Error("async read completed before the wire roundtrip")
		}
		// The caller's clock did not advance.
		if p.Now() != t0 {
			t.Error("async issue consumed caller time")
		}
		// Async write delivery includes the one-way latency.
		d := e.DMAWriteAsync(p.Now(), 64)
		if d < p.Now()+e.Params().OneWay {
			t.Errorf("async write delivered at %v, before one-way %v", d, e.Params().OneWay)
		}
	})
}

func TestUtilizationTracksAsyncTraffic(t *testing.T) {
	run(t, func(p *sim.Proc, e *Endpoint, c *CoreMMIO) {
		e.DMAReadAsync(p.Now(), 31500) // 1us of ToDevice at 31.5 B/ns
		p.Sleep(2 * sim.Microsecond)
		u := e.Utilization(ToDevice, p.Now())
		if u < 0.45 || u > 0.55 {
			t.Errorf("utilization = %.2f, want ~0.5", u)
		}
	})
}
