package ccnic

import (
	"testing"

	"ccnic/internal/sim"
)

func TestRunForwardPublicAPI(t *testing.T) {
	tb := NewTestbed(Config{Platform: "ICX", Interface: CCNIC, Queues: 2, HostPrefetch: true})
	res := tb.RunForward(LoopbackOptions{
		PktSize: 1536,
		Rate:    2e6,
		Warmup:  20 * sim.Microsecond,
		Measure: 60 * sim.Microsecond,
	})
	if res.PPS < 1e6 {
		t.Fatalf("forwarded %.0f pps", res.PPS)
	}
	if res.Gbps <= 0 {
		t.Error("no forwarded bytes")
	}
}

func TestRunKVStorePublicAPI(t *testing.T) {
	tb := NewTestbed(Config{
		Platform: "ICX", Interface: OverlayCCNIC, Queues: 2,
		OverlayThreads: 4, HostPrefetch: true,
	})
	res := tb.RunKVStore(KVOptions{
		Dist:         "ads",
		Keys:         10_000,
		RatePerQueue: 2e6,
		Seed:         5,
		Warmup:       25 * sim.Microsecond,
		Measure:      60 * sim.Microsecond,
	})
	if res.OpsPerSec <= 0 {
		t.Fatal("no KV throughput")
	}
	if res.Gets == 0 || res.Sets == 0 {
		t.Errorf("op mix missing: %d gets %d sets", res.Gets, res.Sets)
	}
}

func TestRunKVStoreFixedAndGeo(t *testing.T) {
	for _, opt := range []KVOptions{
		{Dist: "geo", Keys: 5_000, RatePerQueue: 1e6, Seed: 2,
			Warmup: 20 * sim.Microsecond, Measure: 40 * sim.Microsecond},
		{FixedSize: 512, Keys: 5_000, RatePerQueue: 1e6, Seed: 2,
			Warmup: 20 * sim.Microsecond, Measure: 40 * sim.Microsecond},
	} {
		tb := NewTestbed(Config{Platform: "ICX", Interface: CX6, Queues: 1, HostPrefetch: true})
		res := tb.RunKVStore(opt)
		if res.OpsPerSec <= 0 {
			t.Fatalf("dist %q fixed %d: no throughput", opt.Dist, opt.FixedSize)
		}
	}
}

func TestRunRPCPublicAPI(t *testing.T) {
	tb := NewTestbed(Config{Platform: "ICX", Interface: CX6, Queues: 2, HostPrefetch: true})
	res := tb.RunRPC(RPCOptions{
		RatePerQueue: 2e6,
		Warmup:       20 * sim.Microsecond,
		Measure:      60 * sim.Microsecond,
	})
	if res.OpsPerSec < 1e6 {
		t.Fatalf("echo throughput %.2f Mops", res.Mops())
	}
}
