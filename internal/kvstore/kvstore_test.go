package kvstore

import (
	"testing"

	"ccnic/internal/coherence"
	"ccnic/internal/device"
	"ccnic/internal/mem"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
	"ccnic/internal/traffic"
)

// buildOverlay assembles an overlay testbed with the given app thread count.
func buildOverlay(queues, overlayThreads int) (*coherence.System, device.Device, []*coherence.Agent) {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	sys.SetPrefetch(0, true) // the paper's default operating point
	hosts := make([]*coherence.Agent, queues)
	for i := range hosts {
		hosts[i] = sys.NewAgent(0, "app")
	}
	ovs := make([]*coherence.Agent, overlayThreads)
	for i := range ovs {
		ovs[i] = sys.NewAgent(1, "ov")
	}
	dev := device.NewOverlay(sys, device.CCNICConfig(), platform.CX6(), hosts, ovs)
	return sys, dev, hosts
}

func runKV(t *testing.T, queues int, dist *traffic.SizeDist, rate float64) Result {
	t.Helper()
	sys, dev, hosts := buildOverlay(queues, 2*queues)
	store := NewStore(sys, 0, 10_000, dist)
	res := Run(Config{
		Sys:          sys,
		Dev:          dev,
		Hosts:        hosts,
		Store:        store,
		Seed:         1,
		RatePerQueue: rate,
		Warmup:       30 * sim.Microsecond,
		Measure:      100 * sim.Microsecond,
	})
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestKVServesOps(t *testing.T) {
	res := runKV(t, 2, traffic.Ads(3), 1e6)
	if res.OpsPerSec <= 0 {
		t.Fatal("no operations completed")
	}
	total := res.Gets + res.Sets
	frac := float64(res.Gets) / float64(total)
	if frac < 0.90 || frac > 0.99 {
		t.Errorf("get fraction = %.3f, want ~0.95", frac)
	}
	t.Logf("2 threads, Ads, 1Mrps offered: %.2f Mops (%d gets, %d sets)",
		res.Mops(), res.Gets, res.Sets)
}

func TestKVThroughputScalesWithThreads(t *testing.T) {
	// Below device saturation, more server threads must serve more ops.
	one := runKV(t, 1, traffic.Ads(3), 4e6)
	four := runKV(t, 4, traffic.Ads(3), 4e6)
	if four.OpsPerSec < 2*one.OpsPerSec {
		t.Errorf("4 threads (%.2f Mops) should be >2x 1 thread (%.2f Mops)",
			four.Mops(), one.Mops())
	}
	t.Logf("1 thread %.2f Mops; 4 threads %.2f Mops", one.Mops(), four.Mops())
}

func TestKVGeoSlowerThanAdsPerOp(t *testing.T) {
	// Geo's larger objects consume more device bandwidth per op, so at
	// identical offered rates beyond saturation, Geo completes fewer ops.
	ads := runKV(t, 4, traffic.Ads(3), 8e6)
	geo := runKV(t, 4, traffic.Geo(3), 8e6)
	if geo.OpsPerSec >= ads.OpsPerSec {
		t.Errorf("Geo (%.2f Mops) should be below Ads (%.2f Mops) at saturation",
			geo.Mops(), ads.Mops())
	}
	t.Logf("saturated: Ads %.2f Mops, Geo %.2f Mops", ads.Mops(), geo.Mops())
}

func TestStoreAccessCharges(t *testing.T) {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	sys.SetPrefetch(0, true) // the paper's default operating point
	a := sys.NewAgent(0, "srv")
	store := NewStore(sys, 0, 1000, traffic.FixedSize(512))
	k.Spawn("t", func(p *sim.Proc) {
		t0 := p.Now()
		addr, size := store.Get(p, a, 42)
		if size != 512 || addr == 0 {
			t.Errorf("Get returned addr=%#x size=%d", addr, size)
		}
		if p.Now() == t0 {
			t.Error("Get charged no time")
		}
		// With the bucket line now cached, a repeat Get is nearly free
		// while a Set still pays for writing the object.
		t1 := p.Now()
		store.Get(p, a, 42)
		cachedGet := p.Now() - t1
		t2 := p.Now()
		store.Set(p, a, 42)
		setCost := p.Now() - t2
		if setCost <= cachedGet {
			t.Errorf("Set (%v) should cost more than a cached Get (%v): it writes the object", setCost, cachedGet)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOpGenDeterministicAndMixed(t *testing.T) {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	sys.SetPrefetch(0, true) // the paper's default operating point
	store := NewStore(sys, 0, 1000, traffic.FixedSize(256))
	a := newOpGen(9, store)
	b := newOpGen(9, store)
	gets := 0
	for i := 0; i < 2000; i++ {
		g1, k1, s1 := a.next()
		g2, k2, s2 := b.next()
		if g1 != g2 || k1 != k2 || s1 != s2 {
			t.Fatal("opGen not deterministic")
		}
		if g1 {
			gets++
			if s1 != reqHeader {
				t.Fatalf("get request size %d", s1)
			}
		} else if s1 != reqHeader+256 {
			t.Fatalf("set request size %d", s1)
		}
	}
	if gets < 1800 || gets > 1980 {
		t.Errorf("gets = %d of 2000, want ~95%%", gets)
	}
}

// NewStore lays the objects out with one sp.Alloc per key, in key order,
// after the bucket array. Replaying that sequence on a fresh mem.Space
// gives every key the address and size Get returns and the size Set
// writes (keys wrap modulo the key count), for both distributions.
func TestStoreLayout(t *testing.T) {
	const nKeys = 2000
	for _, tc := range []struct {
		name string
		dist *traffic.SizeDist
	}{{"ads", traffic.Ads(1)}, {"geo", traffic.Geo(1)}} {
		k := sim.New()
		sys := coherence.NewSystem(k, platform.ICX())
		st := NewStore(sys, 0, nKeys, tc.dist)

		type object struct {
			addr mem.Addr
			size int
		}
		sp := mem.NewSpace()
		sp.AllocLines(0, nKeys/4)
		want := make([]object, nKeys)
		const phi = 0.6180339887498949
		for i := range want {
			u := float64(i+1) * phi
			u -= float64(int(u))
			size := tc.dist.Quantile(u)
			want[i] = object{sp.Alloc(0, size, 0), size}
		}

		a := sys.NewAgent(0, "server")
		k.Spawn("server", func(p *sim.Proc) {
			for key := 0; key < 2*nKeys; key++ {
				w := want[key%nKeys]
				if addr, size := st.Get(p, a, key); addr != w.addr || size != w.size {
					t.Errorf("%s: Get(%d) = %#x, %d B, want %#x, %d B", tc.name, key, addr, size, w.addr, w.size)
				}
				if size := st.Set(p, a, key); size != w.size {
					t.Errorf("%s: Set(%d) wrote %d B, want %d B", tc.name, key, size, w.size)
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
