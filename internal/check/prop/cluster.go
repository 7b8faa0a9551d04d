package prop

import (
	"fmt"
	"math/rand"

	"ccnic/internal/cluster"
	"ccnic/internal/fabric"
	"ccnic/internal/fault"
	"ccnic/internal/sim"
)

// ClusterScenario is one generated multi-host configuration for the parallel
// shard engine. Its property surface is stronger than the single-kernel
// scenarios': beyond run-twice determinism, the same cluster must produce
// bit-identical results under every partition (shard count) and every worker
// count — the conservative-synchronization contract of internal/sim/shard.
type ClusterScenario struct {
	Seed    int64
	Hosts   int
	Window  int
	ReqSize int
	Faults  string // fault.ParsePlan spec; "" runs fault-free

	// Fabric axes (PR 9): switch scheduling mode, destination pattern,
	// and an optional open-loop bulk tenant flow riding the same switch.
	FIFO     bool
	Incast   bool
	BulkFlow bool

	// Reliability axes (PR 10): the end-to-end transport, the redundant
	// two-switch topology, and in-fabric fault classes.
	Reliable bool
	Switches int
}

func (sc ClusterScenario) String() string {
	s := fmt.Sprintf("seed=%d hosts=%d win=%d req=%d", sc.Seed, sc.Hosts, sc.Window, sc.ReqSize)
	if sc.Faults != "" {
		s += " faults=" + sc.Faults
	}
	if sc.FIFO {
		s += " fifo"
	}
	if sc.Incast {
		s += " incast"
	}
	if sc.BulkFlow {
		s += " bulkflow"
	}
	if sc.Reliable {
		s += fmt.Sprintf(" reliable sw=%d", sc.Switches)
	}
	return s
}

// GenerateCluster derives a cluster scenario deterministically from seed.
// New axes are drawn after the pre-existing ones, so a seed's legacy shape
// (hosts/window/size/faults) is stable across harness generations.
func GenerateCluster(seed int64) ClusterScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := ClusterScenario{Seed: seed}
	sc.Hosts = 2 + rng.Intn(5)                          // 2..6 nodes
	sc.Window = [...]int{4, 8, 16, 32}[rng.Intn(4)]     // closed-loop depth
	sc.ReqSize = [...]int{256, 1024, 4096}[rng.Intn(3)] // RPC payload
	if rng.Intn(3) == 0 {
		sc.Faults = fmt.Sprintf("seed=%d,stall=0.01,dma=0.01,link=0.01", seed)
	}
	sc.FIFO = rng.Intn(2) == 1
	sc.Incast = rng.Intn(4) == 0
	sc.BulkFlow = rng.Intn(3) == 0
	// PR 10 axes, drawn after everything older so legacy seed shapes hold.
	sc.Reliable = rng.Intn(3) == 0
	sc.Switches = 1
	if sc.Reliable {
		sc.Switches = 1 + rng.Intn(2)
		if rng.Intn(2) == 0 {
			// In-fabric faults: the transport must recover with the ledger
			// balanced at every partition.
			sc.Faults = fmt.Sprintf("seed=%d,portflap=0.01,corrupt=0.01,blackhole=0.01", seed)
		}
	}
	return sc
}

// RunShards executes the scenario under the given partition and worker
// budget and returns a fingerprint of everything observable in the model:
// aggregate and per-node counters and latency quantiles. Kernel event counts
// are deliberately excluded — they are runtime mechanics, not model results,
// and legitimately differ between partitions (see internal/cluster).
func (sc ClusterScenario) RunShards(shards, workers int) string {
	cfg := cluster.Config{
		Hosts:      sc.Hosts,
		Shards:     shards,
		Workers:    workers,
		Window:     sc.Window,
		ReqSize:    sc.ReqSize,
		FabricFIFO: sc.FIFO,
		Reliable:   sc.Reliable,
		Switches:   sc.Switches,
	}
	if sc.Incast {
		cfg.Pattern = cluster.PatternIncast
	}
	if sc.BulkFlow {
		cfg.Flows = []cluster.FlowSpec{{
			Name: "bulk", Srcs: []int{sc.Hosts - 1}, Dst: 0,
			Class: fabric.ClassBulk, MeanGap: 2 * sim.Microsecond,
			TrackEvery: 4, Seed: sc.Seed,
		}}
	}
	if sc.Faults != "" {
		plan, err := fault.ParsePlan(sc.Faults)
		if err != nil {
			panic("prop: bad cluster fault plan: " + err.Error())
		}
		cfg.Faults = plan
	}
	c := cluster.New(cfg)
	defer c.Close()
	if err := c.Run(120 * sim.Microsecond); err != nil {
		panic(fmt.Sprintf("prop: cluster %s: %v", sc, err))
	}
	r := c.Report()
	fp := fmt.Sprintf("sent=%d served=%d done=%d p50=%d p99=%d", r.Sent, r.Served, r.Done, r.P50, r.P99)
	for _, n := range c.Nodes {
		fp += fmt.Sprintf(" [n sent=%d served=%d done=%d med=%d max=%d]",
			n.Sent, n.Served, n.Done, n.Lat.Median(), n.Lat.Max())
	}
	st := c.FaultStats()
	fp += fmt.Sprintf(" injected=%d", st.Total())
	// Switch- and flow-level results are model outputs too: per-port
	// forwarding counters and the tracked flow tail must survive
	// re-partitioning byte-for-byte.
	fp += fmt.Sprintf(" fwd=%d drop=%d fsent=%d fdel=%d fp99=%d",
		r.Forwarded, r.Dropped, r.FlowSent, r.FlowDelivered, r.FlowP99)
	if sc.Reliable {
		// Armed transports additionally assert the no-silent-loss ledger at
		// the cutoff, and fingerprint every recovery counter.
		if err := c.CheckDelivery(); err != nil {
			panic(fmt.Sprintf("prop: cluster %s: %v", sc, err))
		}
		fp += fmt.Sprintf(" retx=%d to=%d exh=%d dup=%d deg=%d shed=%d fo=%d fb=%d pr=%d/%d fd=%d",
			r.Retransmits, r.Timeouts, r.Exhausted, r.DupResps, r.Degraded, r.Shed,
			r.Failovers, r.Failbacks, r.ProbesSent, r.ProbesMissed, r.FaultDrops)
	}
	return fp
}
