package ccnic_test

import (
	"testing"

	"ccnic"
	"ccnic/internal/cluster"
	"ccnic/internal/device"
	"ccnic/internal/fabric"
	"ccnic/internal/fault"
	"ccnic/internal/sim"
	"ccnic/internal/trace"
)

// pcieRun is what TestPCIeEventPin pins of one PCIe NIC run: the kernel's
// event count, the endpoint's DMA and write-combining counters, and the
// host-observed latency (zero for forwarding, which records none).
type pcieRun struct {
	events              uint64
	dmaReads, dmaWrites int64
	wcStalls            int64
	p50, p99            sim.Time
}

// TestPCIeEventPin pins PCIe NIC runs event for event: closed-loop and
// open-loop loopback, forwarding of synthetic ingress, and open loop under
// an armed fault plan, on the E810 and the CX6. At 2 Mpps per queue the
// CX6's fetch engine waits out its coalescing window while idle. The engines' idle
// waits run as spin steps, which the kernel must count, order and time
// exactly as the Sleep loops they replace; any divergence moves these
// counts. The latencies were recorded with Sleep-loop
// waits; the event and DMA counts were re-recorded when runs began ending
// with their window (the last workload process stops the device), which
// moved only those whole-run counters. The faults row was re-recorded when
// every fault class became a hashed draw keyed by (seed, site, class,
// sequence), which moved only the fault schedule.
func TestPCIeEventPin(t *testing.T) {
	plan, err := ccnic.ParseFaultPlan("seed=1,all=0.02")
	if err != nil {
		t.Fatal(err)
	}
	opt := ccnic.LoopbackOptions{PktSize: 1500, Window: 64,
		Warmup: 10 * sim.Microsecond, Measure: 30 * sim.Microsecond}
	for _, tc := range []struct {
		name  string
		iface ccnic.Interface
		mode  string // "closed", "open", "ingress" or "faults"
		want  pcieRun
	}{
		{"E810/closed", ccnic.E810, "closed", pcieRun{36009, 449, 655, 0, 15728640, 25690112}},
		{"E810/open", ccnic.E810, "open", pcieRun{16775, 260, 359, 0, 7471104, 10747904}},
		{"E810/ingress", ccnic.E810, "ingress", pcieRun{16059, 152, 221, 0, 0, 0}},
		{"E810/faults", ccnic.E810, "faults", pcieRun{17649, 258, 341, 0, 7733248, 10747904}},
		{"CX6/closed", ccnic.CX6, "closed", pcieRun{47896, 474, 774, 0, 14942208, 18874368}},
		{"CX6/open", ccnic.CX6, "open", pcieRun{28889, 198, 388, 0, 3932160, 6160384}},
		{"CX6/ingress", ccnic.CX6, "ingress", pcieRun{36442, 99, 222, 0, 0, 0}},
		{"CX6/faults", ccnic.CX6, "faults", pcieRun{28962, 200, 386, 0, 4063232, 6029312}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ccnic.Config{Platform: "ICX", Interface: tc.iface, Queues: 2, HostPrefetch: true}
			o := opt
			switch tc.mode {
			case "ingress":
				o.Rate = 1e6
			case "faults":
				cfg.Faults = plan
				o.Rate = 2e6
			case "open":
				o.Rate = 2e6
			}
			tb := ccnic.NewTestbed(cfg)
			var got pcieRun
			if tc.mode == "ingress" {
				tb.RunForward(o)
			} else {
				res := tb.RunLoopback(o)
				got.p50, got.p99 = res.Latency.Median(), res.Latency.Percentile(0.99)
			}
			st := tb.Dev.(*device.PCIeNIC).Endpoint().Stats()
			got.events = tb.Kernel.Events()
			got.dmaReads, got.dmaWrites, got.wcStalls = st.DMAReads, st.DMAWrites, st.WCStalls
			if got != tc.want {
				t.Errorf("got  %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// kvRun is what TestKVEventPin pins of one key-value run.
type kvRun struct {
	events              uint64
	gets, sets          int64
	dmaReads, dmaWrites int64
	tx                  int64 // packets the device transmitted over the whole run, summed over queues
}

// TestKVEventPin pins key-value store runs event for event on the CX6 and
// on both overlays (two queues, four forwarding threads), clean and under an
// armed fault plan. At 40 Mops per queue, four times what a server thread
// drains, the CX6's fetch engines wait at a full RX backlog, and each
// overlay TX thread polls its front ring alone; both
// waits run as spin steps, which must count, order and time every event
// exactly as the Sleep loops they replace. The gets and sets were recorded
// with Sleep-loop waits; the event, DMA and TX counts were re-recorded when
// runs began ending with their window (the last workload process stops the
// device), which moved only those whole-run counters. The faults rows were
// re-recorded when every fault class became a hashed draw keyed by (seed,
// site, class, sequence), which moved only the fault schedule.
func TestKVEventPin(t *testing.T) {
	plan, err := ccnic.ParseFaultPlan("seed=1,all=0.02")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		iface  ccnic.Interface
		faults bool
		want   kvRun
	}{
		{"CX6/clean", ccnic.CX6, false, kvRun{22519, 266, 11, 725, 3728, 259}},
		{"CX6/faults", ccnic.CX6, true, kvRun{20190, 246, 10, 659, 3458, 227}},
		{"OverlayCCNIC/clean", ccnic.OverlayCCNIC, false, kvRun{45961, 390, 22, 1019, 5052, 388}},
		{"OverlayCCNIC/faults", ccnic.OverlayCCNIC, true, kvRun{39176, 278, 11, 632, 3528, 190}},
		{"OverlayUnopt/clean", ccnic.OverlayUnopt, false, kvRun{43440, 245, 10, 758, 4388, 212}},
		{"OverlayUnopt/faults", ccnic.OverlayUnopt, true, kvRun{34722, 176, 7, 571, 3472, 138}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ccnic.Config{Platform: "ICX", Interface: tc.iface, Queues: 2,
				OverlayThreads: 4, HostPrefetch: true}
			if tc.faults {
				cfg.Faults = plan
			}
			tb := ccnic.NewTestbed(cfg)
			res := tb.RunKVStore(ccnic.KVOptions{Keys: 2000, RatePerQueue: 40e6, Seed: 1,
				Warmup: 10 * sim.Microsecond, Measure: 20 * sim.Microsecond})
			nic, ok := tb.Dev.(*device.PCIeNIC)
			if !ok {
				nic = tb.Dev.(*device.Overlay).Back()
			}
			st := nic.Endpoint().Stats()
			got := kvRun{events: tb.Kernel.Events(), gets: res.Gets, sets: res.Sets,
				dmaReads: st.DMAReads, dmaWrites: st.DMAWrites}
			for q := 0; q < cfg.Queues; q++ {
				got.tx += tb.Dev.(device.Injector).TxCount(q)
			}
			if got != tc.want {
				t.Errorf("got  %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// coherentRun is what TestCoherentEventPin pins of one coherent NIC run: the
// kernel's event count, the demand reads and RFOs that crossed the link
// (summed over both sockets), the link's wire bytes in both directions, and
// the host-observed latency.
type coherentRun struct {
	events                  uint64
	remoteReads, remoteRFOs int64
	wireBytes               int64
	p50, p99                sim.Time
}

// coherentRunOf reads a coherent NIC run's pinned values.
func coherentRunOf(tb *ccnic.Testbed, res *ccnic.LoopbackResult) coherentRun {
	got := coherentRun{events: tb.Kernel.Events(),
		p50: res.Latency.Median(), p99: res.Latency.Percentile(0.99)}
	for s := 0; s < 2; s++ {
		c := tb.Sys.Counters(s)
		got.remoteReads += c.RemoteRead
		got.remoteRFOs += c.RemoteRFO
	}
	st := tb.Sys.Link().Stats()
	got.wireBytes = st.WireBytes[0] + st.WireBytes[1]
	return got
}

// TestCoherentEventPin pins coherent NIC runs event for event: CC-NIC under
// UPI and under CXL, and the unoptimized UPI interface, closed and open loop,
// all at 1500B, where a packet's payload is a multi-line access on both the
// host and the NIC. Those accesses complete each line as a spin step, which
// must count, order and time every event exactly as the per-line Sleep
// loops they replace. The latencies were recorded with Sleep loops; the
// event, remote-access and wire-byte counts were re-recorded when runs
// began ending with their window (the last workload process stops the
// device), which moved only those whole-run counters. Two 64B rows pin the
// buffer pool's burst walks the same way.
func TestCoherentEventPin(t *testing.T) {
	opt := ccnic.LoopbackOptions{PktSize: 1500, Window: 64,
		Warmup: 10 * sim.Microsecond, Measure: 30 * sim.Microsecond}
	for _, tc := range []struct {
		name     string
		iface    ccnic.Interface
		protocol string
		rate     float64 // per-queue offered load; 0 is closed loop
		want     coherentRun
	}{
		{"CCNIC-UPI/closed", ccnic.CCNIC, "UPI", 0, coherentRun{34030, 14000, 162, 1125472, 18350080, 24641536}},
		{"CCNIC-UPI/open", ccnic.CCNIC, "UPI", 2e6, coherentRun{21103, 7976, 227, 645344, 1638400, 1933312}},
		{"CCNIC-CXL/closed", ccnic.CCNIC, "CXL", 0, coherentRun{34235, 14001, 12468, 1351152, 18971431, 25690112}},
		{"CCNIC-CXL/open", ccnic.CCNIC, "CXL", 2e6, coherentRun{18975, 7636, 7410, 756368, 3604480, 4456448}},
		{"Unopt/closed", ccnic.UnoptUPI, "UPI", 0, coherentRun{27298, 9456, 5042, 920352, 20447232, 25690112}},
		{"Unopt/open", ccnic.UnoptUPI, "UPI", 2e6, coherentRun{20650, 7602, 3826, 735664, 3473408, 6422528}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := ccnic.NewTestbed(ccnic.Config{Platform: "ICX", Interface: tc.iface,
				Protocol: tc.protocol, Queues: 2, HostPrefetch: true})
			o := opt
			o.Rate = tc.rate
			res := tb.RunLoopback(o)
			got := coherentRunOf(tb, &res)
			if got != tc.want {
				t.Errorf("got  %+v\nwant %+v", got, tc.want)
			}
		})
	}
	// Two 64B rows where every buffer-pool charge counts. The unoptimized
	// interface's pool neither recycles nor shares, so each Alloc and Free
	// takes the central path: a lock-line write and an entry gather or
	// scatter. The traced CC-NIC run keeps so few records that the tracer
	// evicts in the order packets were born, an order set by the instant
	// each allocation of a TX burst completes. The latencies and trace
	// samples were recorded with a Sleep per buffer charge, the whole-run
	// counters when runs began ending with their window.
	for _, tc := range []struct {
		name      string
		iface     ccnic.Interface
		queues    int
		traceKeep int // 0 runs untraced
		want      coherentRun
		wantTrace tracedRun
	}{
		{"Unopt64/8q", ccnic.UnoptUPI, 8, 0, coherentRun{56686, 9228, 3579, 879776, 6291456, 7208960}, tracedRun{}},
		{"CCNIC64/traced", ccnic.CCNIC, 2, 400, coherentRun{25738, 7046, 1346, 607328, 1867776, 4980736},
			tracedRun{400, 336, 1850765, 1903710, 250245, 282200}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := ccnic.NewTestbed(ccnic.Config{Platform: "ICX", Interface: tc.iface,
				Queues: tc.queues, HostPrefetch: true})
			o := opt
			o.PktSize = 64
			if tc.traceKeep > 0 {
				o.Trace = ccnic.NewTracer(1, tc.traceKeep)
			}
			res := tb.RunLoopback(o)
			got := coherentRunOf(tb, &res)
			var gotTrace tracedRun
			if tr := o.Trace; tr != nil {
				born := tr.StageGap(trace.Born, trace.Received)
				sub := tr.StageGap(trace.Born, trace.Submitted)
				gotTrace = tracedRun{tr.Sampled(), born.Count(), born.Mean(), born.Max(),
					sub.Mean(), sub.Max()}
			}
			if got != tc.want || gotTrace != tc.wantTrace {
				t.Errorf("got  %+v %+v\nwant %+v %+v", got, gotTrace, tc.want, tc.wantTrace)
			}
		})
	}
}

// tracedRun is what TestCoherentEventPin pins of a traced run's tracer: the
// records kept, how many of them saw their packet received, and the exact
// mean and largest born-to-received and born-to-submitted gaps over the
// kept records.
type tracedRun struct {
	sampled               int
	received              int64
	bornMean, bornMax     sim.Time
	submitMean, submitMax sim.Time
}

// fabricMix is the benchmark's fabric-mix cluster (cmd/ccperf): 8 hosts on
// one shard each, closed-loop spread RPCs plus an open-loop Ads tenant flow
// from hosts 1-7 into host 0.
func fabricMix(workers int, seed int64) cluster.Config {
	return cluster.Config{
		Hosts: 8, Workers: workers, Window: 8, ReqSize: 512, Pattern: cluster.PatternSpread,
		Flows: []cluster.FlowSpec{{
			Name: "ads", Srcs: []int{1, 2, 3, 4, 5, 6, 7}, Dst: 0, Dist: "ads",
			MeanGap: 800 * sim.Nanosecond, Tenants: 128, ZipfS: 0.75, TrackEvery: 8, Seed: seed,
		}},
	}
}

// reliableFaults is TestClusterEventPin's reliable-faults configuration: the
// reliable transport over the redundant switch pair, with every in-switch
// fault class armed, on two shards of two hosts each with two workers.
func reliableFaults() cluster.Config {
	plan, err := fault.ParsePlan("seed=5,portflap=0.01,corrupt=0.02,blackhole=0.01,brownout=0.02")
	if err != nil {
		panic(err)
	}
	return cluster.Config{Hosts: 4, Shards: 2, Workers: 2, Window: 8, ReqSize: 1024,
		Reliable: true, Switches: 2, Faults: plan,
		Flows: []cluster.FlowSpec{{
			Name: "bulk", Srcs: []int{1, 2}, Dst: 3, Class: fabric.ClassBulk, Bytes: 4096,
			MeanGap: 2 * sim.Microsecond, TrackEvery: 4, Seed: 3,
		}},
	}
}

// clusterResumes sums the coroutine switches of every shard kernel of c.
func clusterResumes(c *cluster.Cluster) uint64 {
	var resumes uint64
	for _, s := range c.Engine.Shards() {
		resumes += s.Kernel().Resumes()
	}
	return resumes
}

// clusterRun is what TestClusterEventPin pins of one cluster run: the event
// count over every shard kernel, the RPC and flow results, the switches'
// forwarded and dropped packets, the reliable transport's counters, and the
// RPC and tracked-flow tails.
type clusterRun struct {
	events             uint64
	done, served       int64
	flowDelivered      int64
	forwarded, dropped int64
	recovery           cluster.Recovery
	p99, flowP99       sim.Time
}

// TestClusterEventPin pins cluster runs event for event: the fabric-mix
// configuration, and a reliable run over the redundant switch pair with
// every in-switch fault class armed, on two shards of two hosts each with
// two workers. Every cross-shard message is delivered by a process the
// shard engine injects, and the switch's admission, the fault draws keyed
// by the packet's sequence and the hosts' receive paths all run in it; any
// change to how deliveries are scheduled moves these counts. The expected
// values other than events were recorded with deliveries running as
// coroutine processes; events counts one fewer per cross-shard message
// since a delivery's first step is pushed at its delivery instant.
func TestClusterEventPin(t *testing.T) {
	reliable := reliableFaults()
	for _, tc := range []struct {
		name  string
		cfg   cluster.Config
		until sim.Time
		want  clusterRun
	}{
		{"fabric-mix", fabricMix(1, 1), 300 * sim.Microsecond, clusterRun{
			214684, 5325, 5352, 2647, 13680, 0, cluster.Recovery{}, 4325376, 5898240}},
		{"reliable-faults", reliable, 300 * sim.Microsecond, clusterRun{
			52671, 710, 847, 172, 2188, 382, cluster.Recovery{
				Retransmits: 256, Timeouts: 256, Degraded: 21, Shed: 78, BreakerTrips: 2,
				FlowTimeouts: 19, Failovers: 55, Failbacks: 12, ProbesSent: 480, ProbesMissed: 51},
			63963136, 5505024}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.New(tc.cfg)
			defer c.Close()
			if err := c.Run(tc.until); err != nil {
				t.Fatal(err)
			}
			r := c.Report()
			got := clusterRun{events: r.Events, done: r.Done, served: r.Served,
				flowDelivered: r.FlowDelivered, forwarded: r.Forwarded, dropped: r.Dropped,
				recovery: r.Recovery, p99: r.P99, flowP99: r.FlowP99}
			if got != tc.want {
				t.Errorf("got  %+v\nwant %+v", got, tc.want)
			}
			if tc.cfg.Faults == nil {
				return
			}
			fs := c.FaultStats()
			for _, cl := range []fault.Class{fault.FabricPortDown, fault.FabricCorrupt,
				fault.FabricBlackhole, fault.FabricBrownout} {
				if fs.Injected[cl] == 0 {
					t.Errorf("fault class %v never fired", cl)
				}
			}
		})
	}
}

// TestClusterRunsNoCoroutine guards the cluster path's bodiless processes:
// the runs TestClusterEventPin pins make no coroutine switch on any shard
// kernel. The switches' egress schedulers, the hosts' application loops and
// TX pipelines, the flow generators, the reliable transport's watchdogs and
// probers, and every delivery run as steps; a Spawn on the path fails here.
func TestClusterRunsNoCoroutine(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  cluster.Config
	}{{"fabric-mix", fabricMix(1, 1)}, {"reliable-faults", reliableFaults()}} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.New(tc.cfg)
			defer c.Close()
			if err := c.Run(300 * sim.Microsecond); err != nil {
				t.Fatal(err)
			}
			if n := clusterResumes(c); n != 0 {
				t.Errorf("%d coroutine switches over %d events, want 0", n, c.Events())
			}
		})
	}
}
