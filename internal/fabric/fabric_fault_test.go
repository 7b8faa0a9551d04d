package fabric

import (
	"fmt"
	"testing"

	"ccnic/internal/fault"
	"ccnic/internal/sim"
)

// armedCfg returns baseCfg with the given fault plan spec armed.
func armedCfg(t *testing.T, spec string) Config {
	t.Helper()
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg()
	cfg.Faults = fault.NewInjector(plan, -1)
	return cfg
}

// TestFaultPartitionInvariance: with every fabric class armed, the delivery
// schedule and drop accounting are bit-identical for every host partition
// and worker count — the hash-draw identity (source, per-source sequence)
// never depends on how same-instant arrivals interleave, and the kernel
// breaks same-instant ties the same way wherever the shard rounds cut a run.
// The sweep covers seeds 1-16, so no one seed's schedule can hide a tie.
func TestFaultPartitionInvariance(t *testing.T) {
	run := func(seed, hostShards, workers int) *harness {
		h := newHarness(t, 4, hostShards, workers, armedCfg(t, fmt.Sprintf(
			"seed=%d,portflap=0.05,corrupt=0.05,blackhole=0.05,brownout=0.05", seed)))
		for src := 0; src < 4; src++ {
			h.sender(src, (src+1)%4, 40, 1024, ClassRPC, 300*sim.Nanosecond)
			h.sender(src, (src+2)%4, 20, 4096, ClassBulk, 700*sim.Nanosecond)
		}
		if err := h.eng.Run(40 * sim.Microsecond); err != nil {
			t.Fatal(err)
		}
		return h
	}
	for seed := 1; seed <= 16; seed++ {
		h := run(seed, 1, 1)
		if h.sw.Stats().FaultDrops() == 0 {
			t.Fatalf("seed %d: armed plan injected nothing — the test exercises no fault path", seed)
		}
		want := h.fingerprint()
		for _, shards := range []int{2, 4} {
			for _, workers := range []int{1, 4} {
				if got := run(seed, shards, workers).fingerprint(); got != want {
					t.Errorf("seed %d: fingerprint differs at hostShards=%d workers=%d", seed, shards, workers)
				}
			}
		}
	}
}

// TestFaultUnarmedByteIdentical: an injector armed only for endpoint
// classes (which the switch never consults) leaves the schedule
// byte-identical to a fault-free switch.
func TestFaultUnarmedByteIdentical(t *testing.T) {
	run := func(cfg Config) string {
		h := newHarness(t, 4, 2, 2, cfg)
		for src := 0; src < 4; src++ {
			h.sender(src, (src+1)%4, 30, 1024, ClassRPC, 400*sim.Nanosecond)
		}
		if err := h.eng.Run(30 * sim.Microsecond); err != nil {
			t.Fatal(err)
		}
		return h.fingerprint()
	}
	if got, want := run(armedCfg(t, "seed=5,link=0.5,dma=0.5")), run(baseCfg()); got != want {
		t.Fatalf("endpoint-only plan perturbed the fabric:\n%s\nvs\n%s", got, want)
	}
}

// TestScriptedOutage: a scripted port outage drops exactly the traffic that
// hits the window — arrival-side for the downed port's own host, egress-side
// for traffic toward it — with every drop accounted and conservation intact.
func TestScriptedOutage(t *testing.T) {
	cfg := baseCfg()
	cfg.Outages = []Outage{{Port: 1, From: 5 * sim.Microsecond, To: 10 * sim.Microsecond}}
	h := newHarness(t, 4, 4, 2, cfg)
	// Steady streams: toward the outaged port, from it, and a bystander pair.
	h.sender(0, 1, 30, 512, ClassRPC, 500*sim.Nanosecond)
	h.sender(1, 2, 30, 512, ClassRPC, 500*sim.Nanosecond)
	h.sender(3, 2, 30, 512, ClassRPC, 500*sim.Nanosecond)
	if err := h.eng.Run(25 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	st := h.sw.Stats()
	var down int64
	for _, p := range st.Ports {
		down += p.IngressDownDrops + p.EgressDownDrops
	}
	if down == 0 {
		t.Fatal("outage dropped nothing")
	}
	// ~5us of each 500ns stream (one toward port 1, one from it) is lost.
	if down < 12 || down > 24 {
		t.Errorf("port-down drops = %d, want roughly 2 x 10", down)
	}
	// The bystander stream is untouched.
	if got := len(h.recv[2]); got != 30+30-int(st.Ports[1].IngressDrops)-int(down)/2 && got < 40 {
		t.Errorf("bystander deliveries = %d", got)
	}
	// Everything that went missing is accounted.
	if err := h.sw.CheckConservation(); err != nil {
		t.Error(err)
	}
	for port := 0; port < 4; port++ {
		if err := h.sw.CheckPort(port); err != nil {
			t.Error(err)
		}
	}
	// Delivery resumes after repair: host 1 got packets sent after t=10us.
	late := 0
	for _, d := range h.recv[1] {
		if d.at > 10*sim.Microsecond {
			late++
		}
	}
	if late == 0 {
		t.Error("no deliveries to host 1 after the outage healed")
	}
}

// TestBrownoutDelaysWithoutLoss: a brownout derates serialization — later
// deliveries, zero drops.
func TestBrownoutDelaysWithoutLoss(t *testing.T) {
	last := func(cfg Config) (sim.Time, int, int64) {
		h := newHarness(t, 2, 2, 1, cfg)
		h.sender(0, 1, 50, 4096, ClassBulk, 400*sim.Nanosecond)
		if err := h.eng.Run(80 * sim.Microsecond); err != nil {
			t.Fatal(err)
		}
		var lastAt sim.Time
		for _, d := range h.recv[1] {
			if d.at > lastAt {
				lastAt = d.at
			}
		}
		return lastAt, len(h.recv[1]), h.sw.Stats().Drops()
	}
	baseAt, baseN, baseDrops := last(baseCfg())
	brownAt, brownN, brownDrops := last(armedCfg(t, "seed=3,brownout=0.3"))
	if baseDrops != 0 || brownDrops != 0 {
		t.Fatalf("unexpected drops: base %d brown %d", baseDrops, brownDrops)
	}
	if brownN != baseN {
		t.Fatalf("brownout lost packets: %d vs %d", brownN, baseN)
	}
	if brownAt <= baseAt {
		t.Errorf("brownout did not slow the wire: last delivery %v vs %v", brownAt, baseAt)
	}
}
