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
	register(&Experiment{
		ID:    "faults-rate",
		Title: "Loopback throughput and latency vs injected fault rate: CC-NIC vs E810",
		Paper: "extends Fig 21: the coherent interface's margin over PCIe must survive transient interconnect, replay, and pipeline faults",
		Run:   runFaultsRate,
	})
	register(&Experiment{
		ID:    "faults-recovery",
		Title: "Recovery-path counters by armed fault class (re-rings, retries, backoffs, drops)",
		Paper: "beyond the paper: every armed fault class is absorbed by a software recovery path and surfaced as counters, not silent loss",
		Run:   runFaultsRecovery,
	})
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
	queues := 4
	rates := []float64{0, 0.002, 0.005, 0.01, 0.02}
	if opt.Quick {
		queues = 2
		rates = []float64{0, 0.01}
	}
	var tputSeries, latSeries []*stats.Series
	for _, iface := range []ccnic.Interface{ccnic.CCNIC, ccnic.E810} {
		iface := iface
		tput := &stats.Series{Name: iface.String() + " [Mpps]", XLabel: "fault rate [%]"}
		lat := &stats.Series{Name: iface.String() + " [us]", XLabel: "fault rate [%]"}
		type pt struct{ mpps, us float64 }
		pts := make([]pt, len(rates))
		parallel(len(rates), func(i int) {
			tb := ccnic.NewTestbed(ccnic.Config{
				Platform:     "ICX",
				Interface:    iface,
				Queues:       queues,
				HostPrefetch: true,
				Faults:       allClassPlan(rates[i]),
			})
			o := peakOpts(64, opt)
			o.Window = 64
			res := tb.RunLoopback(o)
			pts[i] = pt{res.Mpps(), res.Latency.Median().Microseconds()}
		})
		for i, r := range rates {
			tput.Add(r*100, pts[i].mpps)
			lat.Add(r*100, pts[i].us)
		}
		tputSeries = append(tputSeries, tput)
		latSeries = append(latSeries, lat)
	}
	return &Report{
		ID:    "faults-rate",
		Title: "Fault-rate sensitivity",
		Groups: []SeriesGroup{
			{Name: fmt.Sprintf("(a) 64B closed-loop throughput vs fault rate, %d cores (ICX)", queues), Series: tputSeries},
			{Name: fmt.Sprintf("(b) 64B median latency vs fault rate, %d cores (ICX)", queues), Series: latSeries},
		},
	}
}

// faultLoopStats runs a short loopback with one class armed and returns
// the injector's counters. Coherent-fabric classes run on CC-NIC; the
// PCIe-endpoint classes run on E810, where they actually bite. Doorbell
// classes are armed at a much higher rate: drivers coalesce doorbells,
// so a run offers only ~100 doorbell opportunities against thousands of
// link transfers or DMA completions.
func faultLoopStats(class fault.Class, opt Options) (*fault.Stats, string) {
	iface, name := ccnic.E810, "E810 loopback"
	if class == fault.LinkCorrupt || class == fault.CachePressure {
		iface, name = ccnic.CCNIC, "CC-NIC loopback"
	}
	plan := &fault.Plan{Seed: 33}
	plan.Rate[class] = 0.02
	if class == fault.DoorbellDrop || class == fault.DoorbellDup {
		plan.Rate[class] = 0.25
	}
	tb := ccnic.NewTestbed(ccnic.Config{
		Platform: "ICX", Interface: iface, Queues: 2, HostPrefetch: true, Faults: plan,
	})
	o := ccnic.LoopbackOptions{PktSize: 64, Window: 64,
		Warmup: 20 * sim.Microsecond, Measure: 80 * sim.Microsecond}
	if opt.Quick {
		o.Measure = 40 * sim.Microsecond
	}
	tb.RunLoopback(o)
	return tb.Sys.Faults().Stats(), name
}

// faultRPCStats drops doorbells and stalls the pipeline of a PCIe NIC
// under the TCP echo workload: the driver's re-ring watchdog is the
// recovery path (a 1024-deep TX ring drains long before the
// retransmission budget matters against real device models).
func faultRPCStats(opt Options) *fault.Stats {
	plan := &fault.Plan{Seed: 33}
	plan.Rate[fault.DoorbellDrop] = 0.3
	plan.Rate[fault.PipelineStall] = 0.05
	tb := ccnic.NewTestbed(ccnic.Config{
		Platform: "ICX", Interface: ccnic.CX6, Queues: 2, HostPrefetch: true, Faults: plan,
	})
	warm, meas := 25*sim.Microsecond, 80*sim.Microsecond
	if opt.Quick {
		meas = 50 * sim.Microsecond
	}
	rpcstack.Run(rpcstack.Config{
		Sys: tb.Sys, Dev: tb.Dev, FastPath: tb.Hosts, App: tb.Sys.NewAgent(0, "app"),
		RatePerQueue: 20e6, Warmup: warm, Measure: meas,
	})
	return tb.Sys.Faults().Stats()
}

// wedgeSys builds a system with the pipeline-stall class armed and a stub
// NIC whose TX side refuses work for a multi-microsecond window drawn from
// that class: a wedge deep enough to exhaust the software layers' backoff
// budgets.
func wedgeSys(agents int) (*coherence.System, *device.Stub, []*coherence.Agent) {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	sys.SetPrefetch(0, true)
	plan := &fault.Plan{Seed: 33}
	plan.Rate[fault.PipelineStall] = 0.2
	sys.SetFaults(fault.NewInjector(plan))
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

// wedgeRPCStats drives the echo RPC fast path into a wedged TX queue,
// exercising the retransmission timer and its degraded-mode drop.
func wedgeRPCStats(opt Options) *fault.Stats {
	sys, dev, fps := wedgeSys(2)
	app := sys.NewAgent(0, "app")
	meas := 80 * sim.Microsecond
	if opt.Quick {
		meas = 50 * sim.Microsecond
	}
	rpcstack.Run(rpcstack.Config{
		Sys: sys, Dev: dev, FastPath: fps, App: app,
		RatePerQueue: 20e6, Warmup: 25 * sim.Microsecond, Measure: meas,
	})
	return sys.Faults().Stats()
}

// wedgeKVStats drives the key-value store into a wedged TX queue,
// exercising the response timeout / bounded-retry budget.
func wedgeKVStats(opt Options) *fault.Stats {
	sys, dev, hosts := wedgeSys(2)
	meas := 80 * sim.Microsecond
	if opt.Quick {
		meas = 50 * sim.Microsecond
	}
	kvstore.Run(kvstore.Config{
		Sys: sys, Dev: dev, Hosts: hosts,
		Store:        kvstore.NewStore(sys, 0, 10_000, traffic.FixedSize(256)),
		Seed:         7,
		RatePerQueue: 10e6,
		Warmup:       25 * sim.Microsecond, Measure: meas,
	})
	return sys.Faults().Stats()
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
	row := func(label, workload string, st *fault.Stats) {
		t.AddRow(label, workload,
			fmt.Sprintf("%d", st.Total()),
			fmt.Sprintf("%d", st.Rerings),
			fmt.Sprintf("%d", st.Retries),
			fmt.Sprintf("%d", st.Retransmits),
			fmt.Sprintf("%d", st.Backoffs),
			fmt.Sprintf("%d", st.Drops))
	}
	// Endpoint classes only: the fabric classes (portflap, corrupt,
	// blackhole, brownout) have no opportunity points on a single-machine
	// testbed — their recovery paths live in the cluster transport and are
	// exercised by the chaos experiments (fabric-portflap,
	// failover-recovery) instead.
	for _, c := range fault.EndpointClasses() {
		st, workload := faultLoopStats(c, opt)
		row(c.String(), workload, st)
	}
	row("dbdrop+stall", "CX6 TCP echo RPC", faultRPCStats(opt))
	row("stall", "wedged-TX echo RPC", wedgeRPCStats(opt))
	row("stall", "wedged-TX KV store", wedgeKVStats(opt))
	return &Report{
		ID:     "faults-recovery",
		Title:  "Fault recovery paths",
		Tables: []*stats.Table{t},
		Notes: []string{
			"an injected fault with zero recovery counters was absorbed by timing slack alone (latency, not loss)",
		},
	}
}
