// Command ccnicsim runs a single configurable simulation: choose the
// platform, host-NIC interface, core count, workload, and load, and get
// throughput, latency percentiles, interconnect statistics, and (optionally)
// a packet-lifecycle breakdown. It is the exploratory companion to
// ccbench's fixed paper experiments.
//
// Examples:
//
//	ccnicsim -iface ccnic -queues 8 -pkt 64
//	ccnicsim -iface e810 -queues 4 -pkt 1536 -rate 2e6
//	ccnicsim -platform SPR -iface unopt -queues 16 -trace
//	ccnicsim -iface overlay -workload kv -dist geo -queues 4
//	ccnicsim -platform SPR -protocol cxl -iface ccnic -queues 8 -workload forward
//	ccnicsim -workload cluster -hosts 8 -incast -bulk 2 -signal pcie
package main

import (
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strings"

	"ccnic"
	"ccnic/internal/cluster"
	"ccnic/internal/fabric"
	"ccnic/internal/loopback"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// flagValues is ccnicsim's command line: every flag's value, and which
// flags were set explicitly.
type flagValues struct {
	platform, iface, workload, dist, protocol, faults, signal           string
	queues, pkt, window, txBatch, rxBatch, overlayThreads, bulk, shards int
	hosts, switches                                                     int
	rate, measure                                                       float64
	prefetch, trace, incast, fifo, reliable                             bool
	set                                                                 map[string]bool
}

// parseFlags defines ccnicsim's flags on fs and parses args into them.
func parseFlags(fs *flag.FlagSet, args []string) (flagValues, error) {
	var v flagValues
	fs.StringVar(&v.platform, "platform", "ICX", "platform: ICX or SPR")
	fs.StringVar(&v.iface, "iface", "ccnic", "interface: ccnic, unopt, e810, cx6, overlay, overlay-unopt")
	fs.IntVar(&v.queues, "queues", 4, "host threads / queue pairs")
	fs.IntVar(&v.pkt, "pkt", 64, "packet size in bytes")
	fs.Float64Var(&v.rate, "rate", 0, "offered packets/s per queue (0 = closed-loop max)")
	fs.IntVar(&v.window, "window", 128, "closed-loop in-flight window per queue")
	fs.IntVar(&v.txBatch, "txbatch", 32, "TX burst size")
	fs.IntVar(&v.rxBatch, "rxbatch", 32, "RX burst size")
	fs.StringVar(&v.workload, "workload", "loopback", "workload: loopback, forward, kv, rpc, or cluster")
	fs.StringVar(&v.dist, "dist", "ads", "kv object distribution: ads or geo")
	fs.Float64Var(&v.measure, "measure", 150, "measurement window in microseconds")
	fs.BoolVar(&v.prefetch, "prefetch", true, "host hardware prefetching")
	fs.BoolVar(&v.trace, "trace", false, "sample packet lifecycles and print a stage breakdown (loopback only)")
	fs.IntVar(&v.overlayThreads, "overlay-threads", 0, "overlay forwarding threads (0 = one per queue)")
	fs.StringVar(&v.protocol, "protocol", "upi", "coherence protocol backend: upi or cxl")
	fs.StringVar(&v.faults, "faults", "", "arm a deterministic fault `plan`, e.g. \"seed=7,dbdrop=0.01\" or \"all=0.005\" (see internal/fault)")
	fs.IntVar(&v.shards, "shards", 0, "cluster workload: partition the hosts into `N` shards on the parallel engine (0 = one per host; results are identical for every value)")
	fs.IntVar(&v.hosts, "hosts", 0, fmt.Sprintf("cluster workload: member node count (default %d)", cluster.DefaultHosts))
	fs.BoolVar(&v.incast, "incast", false, "cluster workload: converge all RPC clients on host 0 (default spread)")
	fs.BoolVar(&v.fifo, "fifo", false, "cluster workload: FIFO fabric scheduling instead of DRR fair queuing")
	fs.IntVar(&v.bulk, "bulk", 0, "cluster workload: saturating 8KiB bulk tenants aimed at host 0 (`N` generators)")
	fs.StringVar(&v.signal, "signal", "ccnic", "cluster workload: host-NIC signaling model, ccnic or pcie")
	fs.BoolVar(&v.reliable, "reliable", false, "cluster workload: arm the end-to-end reliable transport (timeouts, retransmission, degraded mode; prints recovery counters)")
	fs.IntVar(&v.switches, "switches", 0, "cluster workload: fabric switches, 1 or 2 (redundant pair with health-probe failover; default 1, or 2 with -reliable)")
	err := fs.Parse(args)
	v.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { v.set[f.Name] = true })
	return v, err
}

func main() {
	v, _ := parseFlags(flag.CommandLine, os.Args[1:]) // flag.CommandLine exits on a parse error
	plan, err := ccnic.ParseFaultPlan(v.faults)
	if err != nil {
		fatalf("ccnicsim: %v", err)
	}

	// Every selector is checked before dispatch, so a typo fails loudly
	// whichever workload would have run.
	plat, err := platform.Lookup(v.platform)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccnicsim: -platform: %v\n", err)
		os.Exit(2)
	}
	iface, ok := map[string]ccnic.Interface{
		"ccnic":         ccnic.CCNIC,
		"unopt":         ccnic.UnoptUPI,
		"e810":          ccnic.E810,
		"cx6":           ccnic.CX6,
		"overlay":       ccnic.OverlayCCNIC,
		"overlay-unopt": ccnic.OverlayUnopt,
	}[strings.ToLower(v.iface)]
	if !ok {
		fatalf("ccnicsim: unknown interface %q", v.iface)
	}
	proto, err := ccnic.ParseProtocol(v.protocol)
	if err != nil {
		fatalf("ccnicsim: %v", err)
	}
	if err := checkFlags(v, plat); err != nil {
		fatalf("ccnicsim: %v", err)
	}
	if v.workload == "cluster" {
		// A multi-host topology on the parallel shard engine, not a single
		// testbed: it has no coherence protocol backend to select.
		if proto != ccnic.ProtoUPI {
			fatalf("ccnicsim: -workload cluster does not model the coherence protocol (-protocol %v)", proto)
		}
		runCluster(clusterOpts{
			plat: plat, hosts: v.hosts, shards: v.shards, window: v.window, reqSize: v.pkt,
			measureUS: v.measure, plan: plan,
			incast: v.incast, fifo: v.fifo, bulk: v.bulk, signal: v.signal,
			reliable: v.reliable, switches: v.switches,
		})
		return
	}

	tb := ccnic.NewTestbed(ccnic.Config{
		Plat:           plat,
		Interface:      iface,
		Protocol:       v.protocol,
		Queues:         v.queues,
		HostPrefetch:   v.prefetch,
		OverlayThreads: v.overlayThreads,
		Faults:         plan,
	})
	// kv sizes its own requests; every other workload's -pkt is a host
	// packet, bounded by the built testbed's buffers, not by checkFlags.
	if v.workload != "kv" {
		if err := loopback.CheckPktSize(v.pkt, tb.Dev); err != nil {
			fmt.Fprintf(os.Stderr, "ccnicsim: -pkt %d: %v\n", v.pkt, err)
			os.Exit(2)
		}
	}
	meas := sim.Time(v.measure * float64(sim.Microsecond))
	warm := meas / 3

	fmt.Printf("platform %s, interface %v over %s, %d queues, %dB packets\n",
		tb.Plat.Name, iface, tb.Sys.Link().Label(), v.queues, v.pkt)
	if plan != nil {
		fmt.Printf("fault plan armed: %s\n", plan)
	}
	fmt.Println()

	// rate is -rate, or the workload's default offered load when it is 0.
	rate := func(def float64) float64 {
		if v.rate == 0 {
			return def
		}
		return v.rate
	}
	switch v.workload {
	case "loopback":
		var tr *ccnic.Tracer
		if v.trace {
			tr = ccnic.NewTracer(4, 8192)
		}
		res := tb.RunLoopback(ccnic.LoopbackOptions{
			PktSize: v.pkt, Rate: v.rate, Window: v.window,
			TxBatch: v.txBatch, RxBatch: v.rxBatch,
			Warmup: warm, Measure: meas, Trace: tr,
		})
		fmt.Printf("throughput: %8.2f Mpps (%.1f Gbps payload)\n", res.Mpps(), res.Gbps)
		fmt.Printf("latency:    median %v   p99 %v   min %v   max %v\n",
			res.Latency.Median(), res.Latency.Percentile(0.99),
			res.Latency.Min(), res.Latency.Max())
		if tr != nil {
			fmt.Println()
			fmt.Print(tr.Report())
		}
	case "forward":
		res := tb.RunForward(ccnic.LoopbackOptions{
			PktSize: v.pkt, Rate: rate(5e6), Warmup: warm, Measure: meas,
		})
		fmt.Printf("forwarded: %8.2f Mpps (%.1f Gbps)\n", res.Mpps(), res.Gbps)
	case "kv":
		res := tb.RunKVStore(ccnic.KVOptions{
			Dist: v.dist, RatePerQueue: rate(10e6), Seed: 7,
			Warmup: warm, Measure: meas,
		})
		fmt.Printf("kv store:  %8.2f Mops (%d gets, %d sets processed)\n",
			res.Mops(), res.Gets, res.Sets)
	case "rpc":
		res := tb.RunRPC(ccnic.RPCOptions{
			RPCSize: v.pkt, RatePerQueue: rate(30e6),
			Warmup: warm, Measure: meas,
		})
		fmt.Printf("echo rpc:  %8.2f Mops\n", res.Mops())
	}

	st := tb.Sys.Link().Stats()
	now := tb.Kernel.Now()
	fmt.Printf("\n%s interconnect: %.1f/%.1f GB wire to-NIC/to-host, utilization %.0f%%/%.0f%%\n",
		tb.Sys.Link().Label(),
		float64(st.WireBytes[0])/1e9, float64(st.WireBytes[1])/1e9,
		tb.Sys.Link().Utilization(0, now)*100, tb.Sys.Link().Utilization(1, now)*100)
	c0, c1 := tb.Sys.Counters(0), tb.Sys.Counters(1)
	fmt.Printf("remote accesses: host %d rd / %d rfo, NIC-side %d rd / %d rfo\n",
		c0.RemoteRead, c0.RemoteRFO, c1.RemoteRead, c1.RemoteRFO)
	if tb.Sys.Protocol() == ccnic.ProtoCXL {
		fmt.Printf("cxl: %d bias flips host-side, %d NIC-side\n", c0.BiasFlips, c1.BiasFlips)
	}
	if flt := tb.Sys.Faults(); flt != nil {
		fmt.Printf("\n%s", flt.Stats().Format())
	}
}

// testbed lists the workloads that run on one testbed; cluster runs a
// multi-host fabric instead.
var testbed = []string{"loopback", "forward", "kv", "rpc"}

// takers names, for each flag that not every workload reads, the workloads
// that read it. checkFlags rejects such a flag, set explicitly, for any
// other workload rather than silently ignoring it.
var takers = map[string][]string{
	"iface": testbed, "queues": testbed, "rate": testbed, "prefetch": testbed, "overlay-threads": testbed,
	"pkt": {"loopback", "forward", "rpc", "cluster"}, "window": {"loopback", "cluster"},
	"txbatch": {"loopback"}, "rxbatch": {"loopback"}, "trace": {"loopback"}, "dist": {"kv"},
	"hosts": {"cluster"}, "shards": {"cluster"}, "incast": {"cluster"}, "fifo": {"cluster"},
	"bulk": {"cluster"}, "signal": {"cluster"}, "reliable": {"cluster"}, "switches": {"cluster"},
}

// checkFlags rejects an unknown workload, a flag the workload ignores, and
// flag values outside their valid ranges, with a message that names the
// flag, so bad input exits before any simulation is built instead of
// panicking, hanging, printing nonsense or being silently dropped.
// -queues and -overlay-threads are bounded by the platform's cores per
// socket.
func checkFlags(v flagValues, plat *platform.Platform) error {
	if v.workload != "cluster" && !slices.Contains(testbed, v.workload) {
		return fmt.Errorf("unknown workload %q (loopback, forward, kv, rpc, or cluster)", v.workload)
	}
	for _, name := range slices.Sorted(maps.Keys(v.set)) {
		if ws, ok := takers[name]; ok && !slices.Contains(ws, v.workload) {
			return fmt.Errorf("-%s: -workload %s ignores it (workloads that read it: %s)", name, v.workload, strings.Join(ws, ", "))
		}
	}
	if v.set["overlay-threads"] && !strings.HasPrefix(strings.ToLower(v.iface), "overlay") {
		return fmt.Errorf("-overlay-threads: -iface %s has no overlay threads (interfaces that do: overlay, overlay-unopt)", v.iface)
	}
	if v.queues < 1 || v.queues > plat.CoresPerSocket {
		return fmt.Errorf("-queues %d: want 1 to %d (%s cores per socket)", v.queues, plat.CoresPerSocket, plat.Name)
	}
	if v.overlayThreads > plat.CoresPerSocket {
		return fmt.Errorf("-overlay-threads %d: want 0 to %d (%s cores per socket)", v.overlayThreads, plat.CoresPerSocket, plat.Name)
	}
	if v.pkt < 1 {
		return fmt.Errorf("-pkt %d: want at least 1", v.pkt)
	}
	if !(v.measure > 0) || math.IsInf(v.measure, 1) {
		return fmt.Errorf("-measure %v: want a finite number greater than 0", v.measure)
	}
	if !(v.rate >= 0) || math.IsInf(v.rate, 1) {
		return fmt.Errorf("-rate %v: want a finite number of at least 0", v.rate)
	}
	for _, f := range []struct {
		name     string
		val, min int
	}{
		{"window", v.window, 1}, {"txbatch", v.txBatch, 1}, {"rxbatch", v.rxBatch, 1},
		{"overlay-threads", v.overlayThreads, 0}, {"bulk", v.bulk, 0}, {"shards", v.shards, 0},
	} {
		if f.val < f.min {
			return fmt.Errorf("-%s %d: want at least %d", f.name, f.val, f.min)
		}
	}
	if v.dist != "ads" && v.dist != "geo" {
		return fmt.Errorf("-dist %q: want ads or geo", v.dist)
	}
	return nil
}

// clusterOpts collects the cluster workload's flag surface.
type clusterOpts struct {
	plat                           *platform.Platform
	hosts, shards, window, reqSize int
	measureUS                      float64
	plan                           *ccnic.FaultPlan
	incast, fifo                   bool
	bulk                           int
	signal                         string
	reliable                       bool
	switches                       int
}

// runCluster drives the multi-host cluster workload on the parallel shard
// engine and prints its report.
func runCluster(o clusterOpts) {
	if o.switches == 0 && o.reliable {
		o.switches = 2 // give the transport's failover somewhere to go
	}
	cfg := cluster.Config{
		Plat:       o.plat,
		Hosts:      o.hosts,
		Shards:     o.shards,
		Window:     o.window,
		ReqSize:    o.reqSize,
		Faults:     o.plan,
		FabricFIFO: o.fifo,
		Reliable:   o.reliable,
		Switches:   o.switches,
	}
	if o.incast || o.bulk > 0 {
		cfg.Pattern = cluster.PatternIncast
	}
	switch strings.ToLower(o.signal) {
	case "", "ccnic":
		cfg.Signaling = cluster.SignalCCNIC
	case "pcie":
		cfg.Signaling = cluster.SignalPCIe
	default:
		fatalf("ccnicsim: unknown signaling model %q (ccnic or pcie)", o.signal)
	}
	effHosts := cfg.Hosts
	if effHosts == 0 {
		effHosts = cluster.DefaultHosts
	}
	for i := 0; i < o.bulk; i++ {
		// max keeps -hosts 1 from dividing by zero; Validate below rejects it.
		src := 1 + i%max(effHosts-1, 1)
		cfg.Flows = append(cfg.Flows, cluster.FlowSpec{
			Name: fmt.Sprintf("bulk%d", i), Srcs: []int{src}, Dst: 0,
			Class: fabric.ClassBulk, Bytes: 8192,
			MeanGap: 300 * sim.Nanosecond, Tenants: 8,
			TrackEvery: 32, Seed: int64(23 + i),
		})
	}
	if err := cfg.Validate(); err != nil {
		fatalf("ccnicsim: %v", err)
	}
	c := cluster.New(cfg)
	defer c.Close()
	fmt.Printf("cluster workload on the parallel shard engine (lookahead %v)\n", c.Lookahead())
	if o.plan != nil {
		fmt.Printf("fault plan armed: %s\n", o.plan)
	}
	fmt.Println()
	if err := c.Run(sim.Time(o.measureUS * float64(sim.Microsecond))); err != nil {
		fatalf("ccnicsim: cluster: %v", err)
	}
	// Report.String surfaces the recovery counters (retransmits, degraded
	// entries, failovers, probes) whenever the armed transport exercised
	// them.
	fmt.Print(c.Report())
	if o.reliable {
		if err := c.CheckDelivery(); err != nil {
			fatalf("ccnicsim: cluster: %v", err)
		}
		fmt.Println("delivery ledger: no silent loss (sent = done + exhausted + pending on every node)")
	}
	st := c.FaultStats()
	if st.Total() > 0 {
		fmt.Printf("\n%s", st.Format())
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
