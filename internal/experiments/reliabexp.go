package experiments

import (
	"fmt"

	"ccnic/internal/cluster"
	"ccnic/internal/fabric"
	"ccnic/internal/fault"
	"ccnic/internal/sim"
	"ccnic/internal/stats"
)

func init() {
	register(
		&Experiment{ID: "fabric-portflap", run: runFabricPortflap,
			Title: "Chaos: port-flap rate sweep on the redundant fabric — retransmission, failover, and the no-silent-loss ledger",
			Paper: "beyond the paper: CC-NIC hosts behind a redundant switched fabric under injected port flaps, corruption, and blackholes — every lost packet is retransmitted to completion or retired as exhausted, never silent"},
		&Experiment{ID: "failover-recovery", run: runFailoverRecovery,
			Title: "Chaos: failover and fail-back timeline around a scripted switch outage, and SLO-aware degraded mode without redundancy",
			Paper: "beyond the paper: health-probe-driven failover bounds the post-heal RPC tail to the pre-fault phase; on a single switch, degraded mode sheds the bulk class while the latency class keeps its delivery rate"},
	)
}

// portflapConfig is the 4-host redundant reliable cluster with the fabric
// classes armed at `rate`. Options.cluster asserts the delivery ledger
// before anything is tabulated: silent loss is an experiment failure, not
// a data point.
func portflapConfig(rate float64) cluster.Config {
	var plan *fault.Plan
	if rate > 0 {
		plan = &fault.Plan{Seed: 29}
		plan.Rate[fault.FabricPortDown] = rate
		plan.Rate[fault.FabricCorrupt] = rate / 2
		plan.Rate[fault.FabricBlackhole] = rate / 2
	}
	return cluster.Config{Hosts: 4, Window: 8, ReqSize: 512, Reliable: true, Switches: 2, Faults: plan}
}

func runFabricPortflap(opt Options) *Report {
	rates := scaled(opt, []float64{0, 0.005, 0.01, 0.02, 0.05}, []float64{0, 0.02})
	measure := scaled(opt, 400*sim.Microsecond, 150*sim.Microsecond)
	reps := clusterReports(opt, measure, rates, portflapConfig)
	p99 := &stats.Series{Name: "rpc p99 [us]", XLabel: "flap rate [%]"}
	retx := &stats.Series{Name: "retransmits", XLabel: "flap rate [%]"}
	tbl := &stats.Table{
		Name: "recovery counters vs injected fabric-fault rate (ledger: sent = done + exhausted + pending, checked)",
		Columns: []string{"flap rate", "rpcs done", "fault drops", "retransmits",
			"timeouts", "exhausted", "failovers", "failbacks", "rpc p99"},
	}
	for i, rate := range rates {
		r := reps[i]
		p99.Add(rate*100, r.P99.Microseconds())
		retx.Add(rate*100, float64(r.Retransmits))
		tbl.AddRow(stats.Val("%.1f%%", rate*100), stats.Val("%d", r.Done),
			stats.Val("%d", r.FaultDrops), stats.Val("%d", r.Retransmits),
			stats.Val("%d", r.Timeouts), stats.Val("%d", r.Exhausted),
			stats.Val("%d", r.Failovers), stats.Val("%d", r.Failbacks),
			stats.Val("%v", r.P99))
	}
	return &Report{
		Title: "Port-flap chaos sweep on the redundant fabric",
		Groups: []SeriesGroup{
			{Name: "RPC tail and retransmission load vs fault rate", Series: []*stats.Series{p99, retx}},
		},
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"every row passed the no-silent-loss ledger check: packets the switches dropped (port-down, corrupt, blackhole) were retransmitted to completion or retired as exhausted — none vanished",
		},
	}
}

// failoverTimeline runs the redundant topology through a scripted outage of
// switch 0's port 0 and returns the phase latency histograms plus the report.
func failoverTimeline(opt Options) ([]stats.Histogram, cluster.Report, []sim.Time) {
	outFrom := scaled(opt, 100*sim.Microsecond, 50*sim.Microsecond)
	outTo := scaled(opt, 180*sim.Microsecond, 100*sim.Microsecond)
	until := scaled(opt, 400*sim.Microsecond, 220*sim.Microsecond)
	recoverTo := outTo + 80*sim.Microsecond
	marks := []sim.Time{outFrom, outTo, recoverTo}
	c := opt.cluster(cluster.Config{
		Hosts: 4, Window: 8, ReqSize: 512,
		Reliable: true, Switches: 2,
		RTO:        10 * sim.Microsecond,
		Outages:    []cluster.ScriptedOutage{{Switch: 0, Port: 0, From: outFrom, To: outTo}},
		PhaseMarks: marks,
	}, until)
	defer c.Close()
	r := c.Report()
	return c.PhaseLatencies(until), r, append(marks, until)
}

// degradedContrast runs the single-switch degraded-mode scenario — an
// incast whose sink port dies mid-run while the distressed node also runs a
// bulk-class and a latency-class flow toward a healthy host — with and
// without the outage, and returns per-class delivered counts.
func degradedContrast(opt Options, withOutage bool) (cluster.Report, [2]int64) {
	until := scaled(opt, 300*sim.Microsecond, 200*sim.Microsecond)
	outFrom := scaled(opt, 60*sim.Microsecond, 40*sim.Microsecond)
	outTo := scaled(opt, 200*sim.Microsecond, 130*sim.Microsecond)
	cfg := cluster.Config{
		Hosts: 3, Window: 8, ReqSize: 512,
		Pattern:  cluster.PatternIncast,
		Reliable: true, RTO: 8 * sim.Microsecond, RetryBudget: 2,
		DegradedWindow: 30 * sim.Microsecond,
		Flows: []cluster.FlowSpec{
			{Name: "bulk", Srcs: []int{1}, Dst: 2, Class: fabric.ClassBulk,
				Bytes: 4096, MeanGap: 2 * sim.Microsecond, Seed: 21},
			{Name: "lat", Srcs: []int{1}, Dst: 2, Class: fabric.ClassRPC,
				Bytes: 512, MeanGap: 2 * sim.Microsecond, Seed: 22},
		},
	}
	if withOutage {
		cfg.Outages = []cluster.ScriptedOutage{{Switch: 0, Port: 0, From: outFrom, To: outTo}}
	}
	c := opt.cluster(cfg, until)
	defer c.Close()
	var del [2]int64
	del[0], _ = c.FlowStats(0)
	del[1], _ = c.FlowStats(1)
	return c.Report(), del
}

func runFailoverRecovery(opt Options) *Report {
	phases, r, bounds := failoverTimeline(opt)
	phaseNames := []string{"pre-fault", "outage", "recovery", "post-heal"}
	tbl := &stats.Table{
		Name:    "RPC latency by phase around a scripted switch-0 outage (redundant fabric, probes + failover armed)",
		Columns: []string{"phase", "window", "rpcs done", "p50", "p99"},
	}
	var from sim.Time
	for i, h := range phases {
		tbl.AddRow(stats.Text(phaseNames[i]), stats.Val("%v..%v", from, bounds[i]),
			stats.Val("%d", h.Count()),
			stats.Val("%v", h.Median()), stats.Val("%v", h.Percentile(0.99)))
		from = bounds[i]
	}

	healthy, hDel := degradedContrast(opt, false)
	faulted, fDel := degradedContrast(opt, true)
	deg := &stats.Table{
		Name:    "single-switch contrast: degraded mode sheds the bulk class, the latency class keeps its rate",
		Columns: []string{"run", "bulk delivered", "latency delivered", "shed", "degraded entries", "breaker trips", "exhausted"},
	}
	deg.AddRow(stats.Text("healthy"), stats.Val("%d", hDel[0]), stats.Val("%d", hDel[1]),
		stats.Val("%d", healthy.Shed), stats.Val("%d", healthy.Degraded),
		stats.Val("%d", healthy.BreakerTrips), stats.Val("%d", healthy.Exhausted))
	deg.AddRow(stats.Text("sink-port outage"), stats.Val("%d", fDel[0]), stats.Val("%d", fDel[1]),
		stats.Val("%d", faulted.Shed), stats.Val("%d", faulted.Degraded),
		stats.Val("%d", faulted.BreakerTrips), stats.Val("%d", faulted.Exhausted))

	pre, post := phases[0].Percentile(0.99), phases[3].Percentile(0.99)
	ratio := float64(post) / float64(pre)
	return &Report{
		Title:  "Failover, fail-back, and degraded mode",
		Tables: []*stats.Table{tbl, deg},
		Notes: []string{
			fmt.Sprintf("the post-heal phase's p99 is %.2fx the pre-fault phase (%d failovers, %d failbacks, %d/%d probes missed): K-of-N probe detection routes around the outage and the clean-window hysteresis restores the primary",
				ratio, r.Failovers, r.Failbacks, r.ProbesMissed, r.ProbesSent),
			fmt.Sprintf("without a redundant switch the transport degrades instead: the distressed node shed %d bulk packets (latency-class delivery %d vs %d healthy) — the SLO policy protects the latency class while bulk absorbs the loss",
				faulted.Shed, fDel[1], hDel[1]),
		},
	}
}
