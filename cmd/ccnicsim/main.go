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
	"math"
	"os"
	"strings"

	"ccnic"
	"ccnic/internal/cluster"
	"ccnic/internal/fabric"
	"ccnic/internal/loopback"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

func main() {
	var (
		platName = flag.String("platform", "ICX", "platform: ICX or SPR")
		ifaceStr = flag.String("iface", "ccnic", "interface: ccnic, unopt, e810, cx6, overlay, overlay-unopt")
		queues   = flag.Int("queues", 4, "host threads / queue pairs")
		pkt      = flag.Int("pkt", 64, "packet size in bytes")
		rate     = flag.Float64("rate", 0, "offered packets/s per queue (0 = closed-loop max)")
		window   = flag.Int("window", 128, "closed-loop in-flight window per queue")
		txBatch  = flag.Int("txbatch", 32, "TX burst size")
		rxBatch  = flag.Int("rxbatch", 32, "RX burst size")
		workload = flag.String("workload", "loopback", "workload: loopback, forward, kv, rpc, or cluster")
		dist     = flag.String("dist", "ads", "kv object distribution: ads or geo")
		measure  = flag.Float64("measure", 150, "measurement window in microseconds")
		prefetch = flag.Bool("prefetch", true, "host hardware prefetching")
		doTrace  = flag.Bool("trace", false, "sample packet lifecycles and print a stage breakdown (loopback only)")
		overlayN = flag.Int("overlay-threads", 0, "overlay forwarding threads (0 = one per queue)")
		protoStr = flag.String("protocol", "upi", "coherence protocol backend: upi or cxl")
		faults   = flag.String("faults", "", "arm a deterministic fault `plan`, e.g. \"seed=7,dbdrop=0.01\" or \"all=0.005\" (see internal/fault)")
		shards   = flag.Int("shards", 0, "cluster workload: partition the hosts into `N` shards on the parallel engine (0 = one per host; results are identical for every value)")
		hosts    = flag.Int("hosts", 0, fmt.Sprintf("cluster workload: member node count (default %d)", cluster.DefaultHosts))
		incast   = flag.Bool("incast", false, "cluster workload: converge all RPC clients on host 0 (default spread)")
		fifo     = flag.Bool("fifo", false, "cluster workload: FIFO fabric scheduling instead of DRR fair queuing")
		bulk     = flag.Int("bulk", 0, "cluster workload: saturating 8KiB bulk tenants aimed at host 0 (`N` generators)")
		signal   = flag.String("signal", "ccnic", "cluster workload: host-NIC signaling model, ccnic or pcie")
		reliable = flag.Bool("reliable", false, "cluster workload: arm the end-to-end reliable transport (timeouts, retransmission, degraded mode; prints recovery counters)")
		switches = flag.Int("switches", 0, "cluster workload: fabric switches, 1 or 2 (redundant pair with health-probe failover; default 1, or 2 with -reliable)")
	)
	flag.Parse()

	plan, err := ccnic.ParseFaultPlan(*faults)
	if err != nil {
		fatalf("ccnicsim: %v", err)
	}

	// Every selector is checked before dispatch, so a typo fails loudly
	// whichever workload would have run.
	plat, err := platform.Lookup(*platName)
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
	}[strings.ToLower(*ifaceStr)]
	if !ok {
		fatalf("ccnicsim: unknown interface %q", *ifaceStr)
	}
	proto, err := ccnic.ParseProtocol(*protoStr)
	if err != nil {
		fatalf("ccnicsim: %v", err)
	}
	if err := checkFlags(flagValues{
		queues: *queues, pkt: *pkt, window: *window, txBatch: *txBatch, rxBatch: *rxBatch,
		overlayThreads: *overlayN, bulk: *bulk, shards: *shards,
		rate: *rate, measure: *measure, dist: *dist,
	}, plat); err != nil {
		fatalf("ccnicsim: %v", err)
	}
	switch *workload {
	case "loopback", "forward", "kv", "rpc":
	case "cluster":
		// A multi-host topology on the parallel shard engine, not a single
		// testbed: it has no coherence protocol backend to select.
		if proto != ccnic.ProtoUPI {
			fatalf("ccnicsim: -workload cluster does not model the coherence protocol (-protocol %v)", proto)
		}
		runCluster(clusterOpts{
			plat: plat, hosts: *hosts, shards: *shards, window: *window, reqSize: *pkt,
			measureUS: *measure, plan: plan,
			incast: *incast, fifo: *fifo, bulk: *bulk, signal: *signal,
			reliable: *reliable, switches: *switches,
		})
		return
	default:
		fatalf("ccnicsim: unknown workload %q (loopback, forward, kv, rpc, or cluster)", *workload)
	}

	tb := ccnic.NewTestbed(ccnic.Config{
		Plat:           plat,
		Interface:      iface,
		Protocol:       *protoStr,
		Queues:         *queues,
		HostPrefetch:   *prefetch,
		OverlayThreads: *overlayN,
		Faults:         plan,
	})
	// kv sizes its own requests; every other workload's -pkt is a host
	// packet, bounded by the built testbed's buffers, not by checkFlags.
	if *workload != "kv" {
		if err := loopback.CheckPktSize(*pkt, tb.Dev); err != nil {
			fmt.Fprintf(os.Stderr, "ccnicsim: -pkt %d: %v\n", *pkt, err)
			os.Exit(2)
		}
	}
	meas := sim.Time(*measure * float64(sim.Microsecond))
	warm := meas / 3

	fmt.Printf("platform %s, interface %v over %s, %d queues, %dB packets\n",
		tb.Plat.Name, iface, tb.Sys.Link().Label(), *queues, *pkt)
	if plan != nil {
		fmt.Printf("fault plan armed: %s\n", plan)
	}
	fmt.Println()

	switch *workload {
	case "loopback":
		var tr *ccnic.Tracer
		if *doTrace {
			tr = ccnic.NewTracer(4, 8192)
		}
		res := tb.RunLoopbackTraced(ccnic.LoopbackOptions{
			PktSize: *pkt, Rate: *rate, Window: *window,
			TxBatch: *txBatch, RxBatch: *rxBatch,
			Warmup: warm, Measure: meas,
		}, tr)
		fmt.Printf("throughput: %8.2f Mpps (%.1f Gbps payload)\n", res.Mpps(), res.Gbps)
		fmt.Printf("latency:    median %v   p99 %v   min %v   max %v\n",
			res.Latency.Median(), res.Latency.Percentile(0.99),
			res.Latency.Min(), res.Latency.Max())
		if tr != nil {
			fmt.Println()
			fmt.Print(tr.Report())
		}
	case "forward":
		r := *rate
		if r == 0 {
			r = 5e6
		}
		res := tb.RunForward(ccnic.LoopbackOptions{
			PktSize: *pkt, Warmup: warm, Measure: meas,
		}, r)
		fmt.Printf("forwarded: %8.2f Mpps (%.1f Gbps)\n", res.Mpps(), res.Gbps)
	case "kv":
		r := *rate
		if r == 0 {
			r = 10e6
		}
		res := tb.RunKVStore(ccnic.KVOptions{
			Dist: *dist, RatePerQueue: r, Seed: 7,
			Warmup: warm, Measure: meas,
		})
		fmt.Printf("kv store:  %8.2f Mops (%d gets, %d sets processed)\n",
			res.Mops(), res.Gets, res.Sets)
	case "rpc":
		r := *rate
		if r == 0 {
			r = 30e6
		}
		res := tb.RunRPC(ccnic.RPCOptions{
			RPCSize: *pkt, RatePerQueue: r,
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

// flagValues are the numeric and selector flags checkFlags bounds.
type flagValues struct {
	queues, pkt, window, txBatch, rxBatch, overlayThreads, bulk, shards int
	rate, measure                                                       float64
	dist                                                                string
}

// checkFlags rejects flag values outside their valid ranges with a message
// that names the flag and the range, so bad input exits before any
// simulation is built instead of panicking, hanging, or printing nonsense.
// -queues and -overlay-threads are bounded by the platform's cores per
// socket.
func checkFlags(v flagValues, plat *platform.Platform) error {
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
		name string
		val  int
	}{
		{"window", v.window}, {"txbatch", v.txBatch}, {"rxbatch", v.rxBatch},
		{"overlay-threads", v.overlayThreads}, {"bulk", v.bulk}, {"shards", v.shards},
	} {
		if f.val < 0 {
			return fmt.Errorf("-%s %d: want at least 0", f.name, f.val)
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
