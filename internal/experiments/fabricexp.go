package experiments

import (
	"fmt"

	"ccnic/internal/cluster"
	"ccnic/internal/fabric"
	"ccnic/internal/sim"
	"ccnic/internal/stats"
)

func init() {
	register(
		&Experiment{ID: "fabric-incast", run: runFabricIncast,
			Title: "Incast fan-in through the switched fabric: RPC tail and delivered load vs converging hosts",
			Paper: "beyond the paper: CC-NIC hosts behind a modeled switch — fan-in congestion queues at the egress port, DRR keeps the RPC tail bounded while tail-drop sheds the excess"},
		&Experiment{ID: "fabric-isolation", run: runFabricIsolation,
			Title: "Tenant isolation: small-RPC tail under a saturating bulk tenant, DRR fair queuing vs FIFO",
			Paper: "beyond the paper: per-(source, class) deficit round robin bounds the RPC p99 a bulk tenant can inflict; the FIFO ablation lets the backlog capture the port"},
		&Experiment{ID: "fabric-crossover", run: runFabricCrossover,
			Title: "CC-NIC vs PCIe doorbell signaling under fabric contention (Fig 21 method)",
			Paper: "extends Fig 21: the coherent interface's fixed signaling advantage is largest on an idle fabric and shrinks relatively as switch queuing dominates the RPC path"},
	)
}

// clusterReports runs cfg(p) to until for every p in params, as one round
// of jobs only the experiment runs (each), and returns their reports.
func clusterReports[P any](o Options, until sim.Time, params []P, cfg func(P) cluster.Config) []cluster.Report {
	return each(o, params, func(p P) cluster.Report {
		c := o.cluster(cfg(p), until)
		defer c.Close()
		return c.Report()
	})
}

// incastConfig is one fan-in degree: `fanin` senders issue closed-loop
// RPCs at host 0 while each also aggregates an open-loop Ads tenant mix
// toward the same port.
func incastConfig(fanin int) cluster.Config {
	srcs := make([]int, fanin)
	for i := range srcs {
		srcs[i] = i + 1
	}
	return cluster.Config{
		Hosts:   fanin + 1,
		Window:  8,
		ReqSize: 512,
		Pattern: cluster.PatternIncast,
		Flows: []cluster.FlowSpec{{
			Name: "ads", Srcs: srcs, Dst: 0, Class: fabric.ClassRPC,
			Dist: "ads", MeanGap: 800 * sim.Nanosecond, Tenants: 128,
			ZipfS: 0.75, TrackEvery: 8, Seed: 17,
		}},
	}
}

func runFabricIncast(opt Options) *Report {
	maxPorts := scaled(opt, 16, 8)
	measure := scaled(opt, 400*sim.Microsecond, 120*sim.Microsecond)
	if opt.FabricPorts > 1 {
		maxPorts = opt.FabricPorts
	}
	var fanins []int
	for f := 2; f <= maxPorts; f *= 2 {
		fanins = append(fanins, f)
	}
	if last := fanins[len(fanins)-1]; last != maxPorts {
		fanins = append(fanins, maxPorts)
	}

	p50 := &stats.Series{Name: "rpc p50 [us]", XLabel: "fan-in [hosts]"}
	p99 := &stats.Series{Name: "rpc p99 [us]", XLabel: "fan-in [hosts]"}
	delivered := &stats.Series{Name: "delivered [Gbps]", XLabel: "fan-in [hosts]"}
	tail := &stats.Series{Name: "flow tracked p99 [us]", XLabel: "fan-in [hosts]"}
	tbl := &stats.Table{
		Name:    "incast fan-in",
		Columns: []string{"fan-in", "rpcs done", "flow pkts", "forwarded", "drops", "rpc p99"},
	}
	reps := clusterReports(opt, measure, fanins, incastConfig)
	for i, f := range fanins {
		r := reps[i]
		x := float64(f)
		p50.Add(x, r.P50.Microseconds())
		p99.Add(x, r.P99.Microseconds())
		secs := float64(r.Now) / float64(sim.Second)
		delivered.Add(x, float64(r.FlowBytes+int64(r.Done)*512)*8/1e9/secs)
		tail.Add(x, r.FlowP99.Microseconds())
		tbl.AddRow(stats.Val("%d", f), stats.Val("%d", r.Done),
			stats.Val("%d", r.FlowDelivered), stats.Val("%d", r.Forwarded),
			stats.Val("%d", r.Dropped), stats.Val("%v", r.P99))
	}
	return &Report{
		Title: "Incast fan-in through the switched fabric",
		Groups: []SeriesGroup{
			{Name: "RPC completion latency vs fan-in", Series: []*stats.Series{p50, p99}},
			{Name: "delivered load and tracked flow tail", Series: []*stats.Series{delivered, tail}},
		},
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"all senders converge on host 0: the egress port's DRR shares the line between the closed-loop RPCs and each source's aggregated Ads tenant flow; past line rate, per-flow tail-drop sheds load while the RPC tail stays queuing-bounded",
		},
	}
}

// isolationConfig is the 3-host isolation shape: two RPC clients of host
// 0, with an optional saturating 8KiB bulk tenant from host 2 onto the
// same egress port.
func isolationConfig(bulk, fifo bool) cluster.Config {
	cfg := cluster.Config{
		Hosts:      3,
		Window:     8,
		ReqSize:    512,
		Pattern:    cluster.PatternIncast,
		FabricFIFO: fifo,
	}
	if bulk {
		cfg.Flows = []cluster.FlowSpec{{
			Name: "bulk", Srcs: []int{2}, Dst: 0, Class: fabric.ClassBulk,
			Bytes: 8192, MeanGap: 300 * sim.Nanosecond, Tenants: 16,
			TrackEvery: 32, Seed: 11,
		}}
	}
	return cfg
}

func runFabricIsolation(opt Options) *Report {
	measure := scaled(opt, 400*sim.Microsecond, 150*sim.Microsecond)
	type cell struct{ bulk, fifo bool }
	cells := []cell{{false, false}, {true, false}, {false, true}, {true, true}}
	name := map[bool]string{false: "DRR", true: "FIFO"}
	load := map[bool]string{false: "idle", true: "saturating"}
	reps := clusterReports(opt, measure, cells, func(c cell) cluster.Config { return isolationConfig(c.bulk, c.fifo) })
	tbl := &stats.Table{
		Name:    "RPC tail under a bulk tenant",
		Columns: []string{"scheduler", "bulk tenant", "rpc p50", "rpc p99", "rpcs done", "bulk MB", "drops"},
	}
	for i, cl := range cells {
		r := reps[i]
		tbl.AddRow(stats.Text(name[cl.fifo]), stats.Text(load[cl.bulk]),
			stats.Val("%v", r.P50), stats.Val("%v", r.P99),
			stats.Val("%d", r.Done), stats.Val("%.1f", float64(r.FlowBytes)/1e6),
			stats.Val("%d", r.Dropped))
	}
	drrRatio := reps[1].P99.Microseconds() / reps[0].P99.Microseconds()
	fifoRatio := reps[3].P99.Microseconds() / reps[2].P99.Microseconds()
	return &Report{
		Title:  "Tenant isolation under fair queuing",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			fmt.Sprintf("bulk load inflates the RPC p99 %.2fx under DRR vs %.2fx under FIFO: the deficit quantum caps how long a small-class packet waits behind the bulk queue, while FIFO serves the full backlog in arrival order", drrRatio, fifoRatio),
		},
	}
}

// crossoverConfig has k bulk tenants contending for the sink's egress
// port with the RPCs, under the given signaling model.
func crossoverConfig(k int, sig cluster.Signal) cluster.Config {
	cfg := cluster.Config{
		Hosts:     6,
		Window:    4,
		ReqSize:   512,
		Pattern:   cluster.PatternIncast,
		Signaling: sig,
	}
	for i := 0; i < k; i++ {
		cfg.Flows = append(cfg.Flows, cluster.FlowSpec{
			Name: fmt.Sprintf("bulk%d", i), Srcs: []int{2 + i}, Dst: 0,
			Class: fabric.ClassBulk, Bytes: 8192,
			MeanGap: 300 * sim.Nanosecond, Tenants: 8, Seed: int64(23 + i),
		})
	}
	return cfg
}

func runFabricCrossover(opt Options) *Report {
	measure := scaled(opt, 400*sim.Microsecond, 150*sim.Microsecond)
	ks := scaled(opt, []int{0, 1, 2, 3, 4}, []int{0, 2})
	sigs := []cluster.Signal{cluster.SignalCCNIC, cluster.SignalPCIe}
	names := []string{"CC-NIC doorbell [us]", "PCIe doorbell [us]"}
	series := make([]*stats.Series, len(sigs))
	reps := make([][]cluster.Report, len(sigs))
	for si, sig := range sigs {
		series[si] = &stats.Series{Name: names[si], XLabel: "bulk tenants"}
		reps[si] = clusterReports(opt, measure, ks, func(k int) cluster.Config { return crossoverConfig(k, sig) })
		for ki, k := range ks {
			series[si].Add(float64(k), reps[si][ki].P50.Microseconds())
		}
	}
	last := len(ks) - 1
	idleGap := reps[1][0].P50.Microseconds() / reps[0][0].P50.Microseconds()
	loadedGap := reps[1][last].P50.Microseconds() / reps[0][last].P50.Microseconds()
	return &Report{
		Title: "Signaling model vs fabric contention",
		Groups: []SeriesGroup{
			{Name: "RPC median vs contending bulk tenants", Series: series},
		},
		Notes: []string{
			fmt.Sprintf("the PCIe doorbell's fixed cost puts it %.2fx above CC-NIC on an idle fabric; with %d saturating bulk tenants queuing at the sink the ratio is %.2fx — the absolute signaling gap persists while switch queuing grows the common path (the Fig 21 crossover method applied to the fabric)", idleGap, ks[last], loadedGap),
		},
	}
}
