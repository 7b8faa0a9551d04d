package experiments

import (
	"fmt"

	"ccnic"
	"ccnic/internal/coherence"
	"ccnic/internal/device"
	"ccnic/internal/fault"
	"ccnic/internal/kvstore"
	"ccnic/internal/platform"
	"ccnic/internal/rpcstack"
	"ccnic/internal/sim"
	"ccnic/internal/stats"
	"ccnic/internal/traffic"
)

func init() {
	register(
		&Experiment{ID: "faults-rate", run: runFaultsRate,
			Title: "Loopback throughput and latency vs injected fault rate: CC-NIC vs E810",
			Paper: "extends Fig 21: the coherent interface's margin over PCIe must survive transient interconnect, replay, and pipeline faults"},
		&Experiment{ID: "faults-recovery", run: runFaultsRecovery,
			Title: "Recovery-path counters by armed fault class (re-rings, retries, backoffs, drops)",
			Paper: "beyond the paper: every armed fault class is absorbed by a software recovery path and surfaced as counters, not silent loss"},
	)
}

// allClassPlan arms every fault class at the same rate (nil at rate 0,
// i.e. the byte-identical fault-free baseline).
func allClassPlan(rate float64) *fault.Plan {
	if rate == 0 {
		return nil
	}
	p := &fault.Plan{Seed: 21}
	for _, c := range fault.Classes() {
		p.Rate[c] = rate
	}
	return p
}

// runFaultsRate sweeps the per-draw fault probability with every class
// armed and plots closed-loop 64B loopback throughput and median latency
// for the coherent and PCIe designs — the fault-rate analogue of Fig 21's
// interconnect derating sweep.
func runFaultsRate(opt Options) *Report {
	queues := scaled(opt, 4, 2)
	rates := scaled(opt, []float64{0, 0.002, 0.005, 0.01, 0.02}, []float64{0, 0.01})
	ifaces := []ccnic.Interface{ccnic.CCNIC, ccnic.E810}
	var pts []point
	for _, iface := range ifaces {
		for _, r := range rates {
			o := peakOpts(64, opt)
			o.Window = 64
			pts = append(pts, point{ccnic.Config{
				Platform:     "ICX",
				Interface:    iface,
				Queues:       queues,
				HostPrefetch: true,
				Faults:       allClassPlan(r),
			}, loopRun(o)})
		}
	}
	rds := opt.read(pts...)
	var tputSeries, latSeries []*stats.Series
	for _, iface := range ifaces {
		tput := &stats.Series{Name: iface.String() + " [Mpps]", XLabel: "fault rate [%]"}
		lat := &stats.Series{Name: iface.String() + " [us]", XLabel: "fault rate [%]"}
		for _, r := range rates {
			tput.Add(r*100, rds[0].mpps())
			lat.Add(r*100, rds[0].median.Microseconds())
			rds = rds[1:]
		}
		tputSeries = append(tputSeries, tput)
		latSeries = append(latSeries, lat)
	}
	return &Report{
		Title: "Fault-rate sensitivity",
		Groups: []SeriesGroup{
			{Name: fmt.Sprintf("(a) 64B closed-loop throughput vs fault rate, %d cores (ICX)", queues), Series: tputSeries},
			{Name: fmt.Sprintf("(b) 64B median latency vs fault rate, %d cores (ICX)", queues), Series: latSeries},
		},
	}
}

// faultLoopPoint is a short loopback with one class armed, read for the
// injector's counters. Coherent-fabric classes
// run on CC-NIC; the PCIe-endpoint classes run on E810, where they
// actually bite. Doorbell classes are armed at a much higher rate: drivers
// coalesce doorbells, so a run offers only ~100 doorbell opportunities
// against thousands of link transfers or DMA completions.
func faultLoopPoint(class fault.Class, opt Options) point {
	iface := ccnic.E810
	if class == fault.LinkCorrupt || class == fault.CachePressure {
		iface = ccnic.CCNIC
	}
	plan := &fault.Plan{Seed: 33}
	plan.Rate[class] = 0.02
	if class == fault.DoorbellDrop || class == fault.DoorbellDup {
		plan.Rate[class] = 0.25
	}
	o := ccnic.LoopbackOptions{PktSize: 64, Window: 64,
		Warmup: 20 * sim.Microsecond, Measure: scaled(opt, 80*sim.Microsecond, 40*sim.Microsecond)}
	return point{ccnic.Config{
		Platform: "ICX", Interface: iface, Queues: 2, HostPrefetch: true, Faults: plan,
	}, loopRun(o)}
}

// faultRPCPoint drops doorbells and stalls the pipeline of a PCIe NIC
// under the TCP echo workload: the driver's re-ring watchdog is the
// recovery path (a 1024-deep TX ring drains long before the
// retransmission budget matters against real device models).
func faultRPCPoint(opt Options) point {
	plan := &fault.Plan{Seed: 33}
	plan.Rate[fault.DoorbellDrop] = 0.3
	plan.Rate[fault.PipelineStall] = 0.05
	o := ccnic.LoopbackOptions{Rate: 20e6,
		Warmup: 25 * sim.Microsecond, Measure: scaled(opt, 80*sim.Microsecond, 50*sim.Microsecond)}
	return point{ccnic.Config{
		Platform: "ICX", Interface: ccnic.CX6, Queues: 2, HostPrefetch: true, Faults: plan,
	}, run{kind: rpcRun, lo: o}}
}

// wedgeSys builds a system with the pipeline-stall class armed and a stub
// NIC whose TX side refuses work for a multi-microsecond window drawn from
// that class: a wedge deep enough to exhaust the software layers' backoff
// budgets.
func wedgeSys(opt Options, agents int) (*coherence.System, *device.Stub, []*coherence.Agent) {
	sys := opt.system(sim.New(), platform.ICX())
	sys.SetPrefetch(0, true)
	plan := &fault.Plan{Seed: 33}
	plan.Rate[fault.PipelineStall] = 0.2
	sys.SetFaults(fault.NewInjector(plan, 0))
	hosts := make([]*coherence.Agent, agents)
	for i := range hosts {
		hosts[i] = sys.NewAgent(0, "srv")
	}
	stallUntil := make([]sim.Time, agents)
	dev := device.NewStub(sys, hosts, func(p *sim.Proc, q int) bool {
		now := p.Now()
		if now < stallUntil[q] {
			return false
		}
		if st := sys.Faults().PipelineStall(); st > 0 {
			// Stretch the drawn stall into a wedge past the backoff budgets.
			stallUntil[q] = now + 10*st
			return false
		}
		return true
	})
	return sys, dev, hosts
}

// wedgeStats drives a workload into a wedged TX queue: the echo RPC fast
// path, exercising the retransmission timer and its degraded-mode drop, or
// with kv the key-value store, exercising the response timeout and
// bounded-retry budget.
func wedgeStats(opt Options, kv bool) fault.Stats {
	sys, dev, hosts := wedgeSys(opt, 2)
	warm, meas := 25*sim.Microsecond, scaled(opt, 80*sim.Microsecond, 50*sim.Microsecond)
	if kv {
		kvstore.Run(kvstore.Config{Sys: sys, Dev: dev, Hosts: hosts,
			Store: kvstore.NewStore(sys, 0, 10_000, traffic.FixedSize(256)), Seed: 7,
			RatePerQueue: 10e6, Warmup: warm, Measure: meas})
	} else {
		rpcstack.Run(rpcstack.Config{Sys: sys, Dev: dev, FastPath: hosts, App: sys.NewAgent(0, "app"),
			RatePerQueue: 20e6, Warmup: warm, Measure: meas})
	}
	return *sys.Faults().Stats()
}

// runFaultsRecovery arms each fault class in isolation and tabulates the
// injection and recovery counters: what was injected, and which software
// path (doorbell re-ring watchdog, TX retry, backoff, retransmission,
// timeout drop) absorbed it.
func runFaultsRecovery(opt Options) *Report {
	t := &stats.Table{
		Name:    "fault injections and the recovery paths that absorbed them",
		Columns: []string{"class", "workload", "injected", "rerings", "retries", "retransmits", "backoffs", "drops"},
	}
	row := func(label, workload string, st fault.Stats) {
		t.AddRow(stats.Text(label), stats.Text(workload),
			stats.Val("%d", st.Total()),
			stats.Val("%d", st.Rerings),
			stats.Val("%d", st.Retries),
			stats.Val("%d", st.Retransmits),
			stats.Val("%d", st.Backoffs),
			stats.Val("%d", st.Drops))
	}
	// Endpoint classes only: the fabric classes (portflap, corrupt,
	// blackhole, brownout) have no opportunity points on a single-machine
	// testbed — their recovery paths live in the cluster transport and are
	// exercised by the chaos experiments (fabric-portflap,
	// failover-recovery) instead. The testbed rows are one round; the
	// wedged-TX rows run on bare systems.
	classes := fault.EndpointClasses()
	var pts []point
	for _, c := range classes {
		pts = append(pts, faultLoopPoint(c, opt))
	}
	rds := opt.read(append(pts, faultRPCPoint(opt))...)
	for i, c := range classes {
		row(c.String(), pts[i].cfg.Interface.String()+" loopback", rds[i].faults)
	}
	row("dbdrop+stall", "CX6 TCP echo RPC", rds[len(classes)].faults)
	row("stall", "wedged-TX echo RPC", wedgeStats(opt, false))
	row("stall", "wedged-TX KV store", wedgeStats(opt, true))
	return &Report{
		Title:  "Fault recovery paths",
		Tables: []*stats.Table{t},
		Notes: []string{
			"an injected fault with zero recovery counters was absorbed by timing slack alone (latency, not loss)",
		},
	}
}
