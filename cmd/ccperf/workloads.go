package main

import (
	"fmt"
	"math/rand"

	"ccnic"
	"ccnic/internal/bufpool"
	"ccnic/internal/cluster"
	"ccnic/internal/device"
	"ccnic/internal/kvstore"
	"ccnic/internal/pcie"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
	"ccnic/internal/stats"
	"ccnic/internal/traffic"
)

// workload is one named input set. Its points are a pure function of the
// seed; small selects the reduced size the tests run.
type workload struct {
	name   string
	why    string
	points func(seed int64, small bool) []point
}

var workloads = []workload{
	{"loopback-64",
		"the headline small-packet path: per-packet polling, doorbell, ring and bufpool work dominate, and no PCIe runs",
		loopback64},
	{"loopback-1500",
		"~24 lines per packet: per-line coherence, interconnect and PCIe DMA dominate while per-packet ring work is amortized",
		loopback1500},
	{"derate-sweep",
		"a fresh short testbed per point, as most experiments build: lazy first-touch allocation and GC weigh most here; the only workload on the CXL backend",
		derateSweep},
	{"kv-zipf",
		"a simulated working set far beyond the loopback rings: directory and cache paging, kvstore/traffic, the overlay device and host memory",
		kvZipf},
	{"fabric-mix",
		"bypasses coherence, ring and device: the shard engine, DRR at one congested egress and the cluster transport are the critical path",
		fabricMix},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// point is one simulation of a workload. setup makes the layer constructor
// calls (the timed setup span) and returns the built simulation; workers is
// the shard-engine worker budget, used only by cluster points.
type point struct {
	name  string
	setup func(workers int) instance
}

// instance is a built simulation that runs once.
type instance interface {
	run() (outcome, error)
	check(o *outcome) error
}

// outcome is what one point's run produced in simulation. All of it is a
// deterministic function of the point's inputs.
type outcome struct {
	// items is the point's unit of work: received packets (loopback and
	// sweep), completed gets and sets (kv), or completed RPCs plus
	// delivered flow packets (cluster).
	items int64
	// digest renders every simulated output as text; the workload's
	// fingerprint hashes the digests of all its points.
	digest string
	tally  tally
}

// tally holds the simulated layer counters of one point, or the sum over
// several.
type tally struct {
	events                            uint64 // kernel events over all shards
	remoteRead, remoteRFO, writebacks int64
	stall                             sim.Time // demand accesses waiting behind in-flight stores
	linkMsgs, linkWire                int64
	dmaOps, wcStalls                  int64
	upiPkts, nicSteps                 int64 // received packets and ring scans on coherent NICs

	loopLat    stats.Histogram
	loopMpps   float64 // summed over loopback points
	loopPoints int
	kvMops     float64 // summed over kv points
	kvPoints   int

	clusterEvents                uint64
	fabricWire, forwarded, drops int64
	rpcs, flows                  int64
	clusterP99, flowP99          sim.Time // highest over cluster points
	clusterPoints                int
}

func (t *tally) add(o *tally) {
	t.events += o.events
	t.remoteRead += o.remoteRead
	t.remoteRFO += o.remoteRFO
	t.writebacks += o.writebacks
	t.stall += o.stall
	t.linkMsgs += o.linkMsgs
	t.linkWire += o.linkWire
	t.dmaOps += o.dmaOps
	t.wcStalls += o.wcStalls
	t.upiPkts += o.upiPkts
	t.nicSteps += o.nicSteps
	t.loopLat.Merge(&o.loopLat)
	t.loopMpps += o.loopMpps
	t.loopPoints += o.loopPoints
	t.kvMops += o.kvMops
	t.kvPoints += o.kvPoints
	t.clusterEvents += o.clusterEvents
	t.fabricWire += o.fabricWire
	t.forwarded += o.forwarded
	t.drops += o.drops
	t.rpcs += o.rpcs
	t.flows += o.flows
	t.clusterP99 = max(t.clusterP99, o.clusterP99)
	t.flowP99 = max(t.flowP99, o.flowP99)
	t.clusterPoints += o.clusterPoints
}

// Loopback grids. Each (interface, queue count) runs closed-loop and then
// open-loop at a seed-drawn share f in [0.2, 0.8] of its closed-loop
// capacity and at the antithetic share 1-f. Below capacity the host work of
// a point grows almost linearly with its offered load, so the pair keeps the
// host work level for every seed while the rates themselves vary. A rate past
// capacity would not: an overloaded PCIe NIC drops packets, and its host work
// then moves with the rate by up to a factor of five.

func loopback64(seed int64, small bool) []point {
	ifaces := []ccnic.Interface{ccnic.CCNIC, ccnic.UnoptUPI}
	queues, measure := []int{1, 4, 8}, 30*sim.Microsecond
	if small {
		queues, measure = []int{1}, 10*sim.Microsecond
	}
	return loopbackGrid(seed, 64, ifaces, queues, measure)
}

func loopback1500(seed int64, small bool) []point {
	ifaces := []ccnic.Interface{ccnic.CCNIC, ccnic.E810, ccnic.CX6}
	queues, measure := []int{1, 4}, 30*sim.Microsecond
	if small {
		queues, measure = []int{1}, 10*sim.Microsecond
	}
	return loopbackGrid(seed, 1500, ifaces, queues, measure)
}

// gridKey names one loopback configuration of the grids.
type gridKey struct {
	iface  ccnic.Interface
	pkt, q int
}

// capacityMpps is each grid configuration's closed-loop receive rate per
// queue, in Mpps (window 128, 20 µs warm-up, 30 µs measured). On the PCIe
// NICs at 4 queues, 1500 B packets are bound by the link, not the queue.
var capacityMpps = map[gridKey]float64{
	{ccnic.CCNIC, 64, 1}: 33.1, {ccnic.CCNIC, 64, 4}: 33.1, {ccnic.CCNIC, 64, 8}: 32.7,
	{ccnic.UnoptUPI, 64, 1}: 10.4, {ccnic.UnoptUPI, 64, 4}: 10.5, {ccnic.UnoptUPI, 64, 8}: 10.4,
	{ccnic.CCNIC, 1500, 1}: 4.27, {ccnic.CCNIC, 1500, 4}: 4.27,
	{ccnic.E810, 1500, 1}: 6.40, {ccnic.E810, 1500, 4}: 3.66,
	{ccnic.CX6, 1500, 1}: 6.40, {ccnic.CX6, 1500, 4}: 3.88,
}

func loopbackGrid(seed int64, pkt int, ifaces []ccnic.Interface, queues []int, measure sim.Time) []point {
	rng := rand.New(rand.NewSource(seed))
	var pts []point
	for _, iface := range ifaces {
		for _, q := range queues {
			capacity, ok := capacityMpps[gridKey{iface, pkt, q}]
			if !ok {
				panic(fmt.Sprintf("ccperf: no capacity for %v/%dB/q%d", iface, pkt, q))
			}
			f := 0.2 + 0.6*rng.Float64()
			for _, mpps := range []float64{0, f * capacity, (1 - f) * capacity} {
				cfg := ccnic.Config{Platform: "ICX", Interface: iface, Queues: q, HostPrefetch: true}
				opt := ccnic.LoopbackOptions{PktSize: pkt, Rate: mpps * 1e6, Window: 128,
					Warmup: 20 * sim.Microsecond, Measure: measure}
				mode := "closed"
				if mpps > 0 {
					mode = fmt.Sprintf("open-%.3fMpps", mpps)
				}
				pts = append(pts, testbedPoint(fmt.Sprintf("%v/q%d/%s", iface, q, mode), cfg, opt))
			}
		}
	}
	return pts
}

// derateSweep builds short SPR CC-NIC testbeds. The 16 combinations of
// backend (alternating point to point), packet size and queue count each get
// an equal share of the points. Within a combination the latency and
// bandwidth derate factors take the centres of equal strata of their ranges,
// and the seed draws which latency stratum pairs with which bandwidth
// stratum, a centred Latin hypercube: every seed runs the same factor values
// and so keeps its total work level, while the testbeds differ.
func derateSweep(seed int64, small bool) []point {
	const combos = 16
	per := 3
	if small {
		per = 2
	}
	n := combos * per
	rng := rand.New(rand.NewSource(seed))
	latStrata, bwStrata := make([][]int, combos), make([][]int, combos)
	for c := range latStrata {
		latStrata[c], bwStrata[c] = rng.Perm(per), rng.Perm(per)
	}
	pts := make([]point, 0, n)
	for i := 0; i < n; i++ {
		c, j := i%combos, i/combos
		proto := []string{"UPI", "CXL"}[c%2]
		pkt := []int{64, 1536}[c/2%2]
		q := 1 + c/4
		lat := 1 + 3*(float64(latStrata[c][j])+0.5)/float64(per)
		bw := 0.4 + 0.6*(float64(bwStrata[c][j])+0.5)/float64(per)
		cfg := ccnic.Config{Plat: platform.SPR().Derate(lat, bw), Interface: ccnic.CCNIC,
			Protocol: proto, Queues: q, HostPrefetch: true}
		opt := ccnic.LoopbackOptions{PktSize: pkt, Window: 128,
			Warmup: 10 * sim.Microsecond, Measure: 30 * sim.Microsecond}
		pts = append(pts, testbedPoint(fmt.Sprintf("%s/%dB/q%d/lat%.3f/bw%.3f", proto, pkt, q, lat, bw), cfg, opt))
	}
	return pts
}

// kvZipf runs the key-value store on the direct CX6 and the CC-NIC Overlay,
// open loop beyond saturation; the seed drives each point's op stream.
func kvZipf(seed int64, small bool) []point {
	keys, threads, measure := 1_000_000, []int{4}, 40*sim.Microsecond
	dists := []string{"ads", "geo"}
	if small {
		keys, threads, measure = 20_000, []int{2}, 20*sim.Microsecond
		dists = dists[:1]
	}
	rng := rand.New(rand.NewSource(seed))
	var pts []point
	for _, iface := range []ccnic.Interface{ccnic.CX6, ccnic.OverlayCCNIC} {
		for _, dist := range dists {
			for _, th := range threads {
				tbCfg := ccnic.Config{Platform: "ICX", Interface: iface, Queues: th,
					OverlayThreads: min(2*th, 16), HostPrefetch: true}
				kvSeed := rng.Int63()
				pts = append(pts, point{
					name: fmt.Sprintf("%v/%s/t%d", iface, dist, th),
					setup: func(int) instance {
						tb := ccnic.NewTestbed(tbCfg)
						sizes := traffic.Ads(kvSeed)
						if dist == "geo" {
							sizes = traffic.Geo(kvSeed)
						}
						return &kvSim{tb: tb, cfg: kvstore.Config{
							Sys: tb.Sys, Dev: tb.Dev, Hosts: tb.Hosts,
							Store:        kvstore.NewStore(tb.Sys, 0, keys, sizes),
							Seed:         kvSeed,
							RatePerQueue: 10e6,
							Warmup:       40 * sim.Microsecond,
							Measure:      measure,
						}}
					},
				})
			}
		}
	}
	return pts
}

// fabricMix is one 8-host cluster: closed-loop spread RPCs plus an open-loop
// Ads tenant flow from hosts 1-7 into host 0, whose streams the seed drives.
func fabricMix(seed int64, small bool) []point {
	until := 4 * sim.Millisecond
	if small {
		until = 300 * sim.Microsecond
	}
	srcs := []int{1, 2, 3, 4, 5, 6, 7}
	return []point{{
		name: "8-host/spread-rpc+ads-flow",
		setup: func(workers int) instance {
			c := cluster.New(cluster.Config{
				Hosts: 8, Workers: workers, Window: 8, ReqSize: 512, Pattern: cluster.PatternSpread,
				Flows: []cluster.FlowSpec{{
					Name: "ads", Srcs: srcs, Dst: 0, Dist: "ads",
					MeanGap: 800 * sim.Nanosecond, Tenants: 128, ZipfS: 0.75, TrackEvery: 8, Seed: seed,
				}},
			})
			return &clusterSim{c: c, until: until}
		},
	}}
}

func testbedPoint(name string, cfg ccnic.Config, opt ccnic.LoopbackOptions) point {
	return point{name: name, setup: func(int) instance {
		return &loopbackSim{tb: ccnic.NewTestbed(cfg), opt: opt}
	}}
}

// devParts returns a testbed device's buffer pools and, where it has them,
// its PCIe endpoint and coherent NIC.
func devParts(tb *ccnic.Testbed) (pools []*bufpool.Pool, ep *pcie.Endpoint, upi *device.UPI) {
	switch tb.Iface {
	case ccnic.CCNIC, ccnic.UnoptUPI:
		u := tb.Dev.(*device.UPI)
		return []*bufpool.Pool{u.Pool()}, nil, u
	case ccnic.E810, ccnic.CX6:
		d := tb.Dev.(*device.PCIeNIC)
		return []*bufpool.Pool{d.Pool()}, d.Endpoint(), nil
	case ccnic.OverlayCCNIC, ccnic.OverlayUnopt:
		b := tb.Dev.(*device.Overlay).Back()
		return []*bufpool.Pool{b.Pool()}, b.Endpoint(), nil
	}
	panic(fmt.Sprintf("ccperf: unknown interface %v", tb.Iface))
}

// testbedTally reads the layer counters of a testbed after its run.
func testbedTally(tb *ccnic.Testbed) tally {
	t := tally{events: tb.Kernel.Events()}
	for s := 0; s < 2; s++ {
		c := tb.Sys.Counters(s)
		t.remoteRead += c.RemoteRead
		t.remoteRFO += c.RemoteRFO
		t.writebacks += c.Writebacks
		t.stall += c.StallTime
	}
	ls := tb.Sys.Link().Stats()
	t.linkMsgs = ls.Messages[0] + ls.Messages[1]
	t.linkWire = ls.WireBytes[0] + ls.WireBytes[1]
	if _, ep, upi := devParts(tb); ep != nil {
		ps := ep.Stats()
		t.dmaOps = ps.DMAReads + ps.DMAWrites
		t.wcStalls = ps.WCStalls
	} else if upi != nil {
		t.nicSteps = upi.NICSteps()
	}
	return t
}

func (t *tally) digest() string {
	return fmt.Sprintf("events=%d rread=%d rrfo=%d wb=%d stall=%d msgs=%d wire=%d dma=%d wcstall=%d steps=%d",
		t.events, t.remoteRead, t.remoteRFO, t.writebacks, t.stall, t.linkMsgs, t.linkWire,
		t.dmaOps, t.wcStalls, t.nicSteps)
}

func checkPools(tb *ccnic.Testbed) error {
	pools, _, _ := devParts(tb)
	for _, p := range pools {
		if err := p.CheckConservation(); err != nil {
			return err
		}
	}
	return nil
}

type loopbackSim struct {
	tb  *ccnic.Testbed
	opt ccnic.LoopbackOptions
}

func (s *loopbackSim) run() (outcome, error) {
	res := s.tb.RunLoopback(s.opt)
	t := testbedTally(s.tb)
	n := res.Latency.Count()
	t.loopLat = res.Latency
	t.loopMpps, t.loopPoints = res.Mpps(), 1
	if t.nicSteps > 0 {
		t.upiPkts = n
	}
	h := &res.Latency
	return outcome{
		items: n,
		digest: fmt.Sprintf("pps=%v gbps=%v dropped=%d lat n=%d min=%d p50=%d p99=%d max=%d mean=%d %s",
			res.PPS, res.Gbps, res.Dropped, n, h.Min(), h.Median(), h.Percentile(0.99), h.Max(), h.Mean(), t.digest()),
		tally: t,
	}, nil
}

func (s *loopbackSim) check(o *outcome) error {
	if o.items <= 0 || o.tally.loopLat.Count() == 0 {
		return fmt.Errorf("no packets received in the measured window")
	}
	return checkPools(s.tb)
}

type kvSim struct {
	tb  *ccnic.Testbed
	cfg kvstore.Config
}

func (s *kvSim) run() (outcome, error) {
	res := kvstore.Run(s.cfg)
	t := testbedTally(s.tb)
	t.kvMops, t.kvPoints = res.Mops(), 1
	return outcome{
		items:  res.Gets + res.Sets,
		digest: fmt.Sprintf("ops/s=%v gets=%d sets=%d %s", res.OpsPerSec, res.Gets, res.Sets, t.digest()),
		tally:  t,
	}, nil
}

func (s *kvSim) check(o *outcome) error {
	if o.items <= 0 || o.tally.kvMops <= 0 {
		return fmt.Errorf("no operations completed in the measured window")
	}
	return checkPools(s.tb)
}

type clusterSim struct {
	c     *cluster.Cluster
	until sim.Time
}

func (s *clusterSim) run() (outcome, error) {
	if err := s.c.Run(s.until); err != nil {
		return outcome{}, err
	}
	rep := s.c.Report()
	t := tally{
		events: rep.Events, clusterEvents: rep.Events,
		forwarded: rep.Forwarded, drops: rep.Dropped,
		rpcs: rep.Done, flows: rep.FlowDelivered,
		clusterP99: rep.P99, flowP99: rep.FlowP99,
		clusterPoints: 1,
	}
	for _, sw := range s.c.Switches {
		t.fabricWire += sw.Stats().Bytes()
	}
	return outcome{
		items:  rep.Done + rep.FlowDelivered,
		digest: fmt.Sprintf("%sevents=%d wire=%d", rep, rep.Events, t.fabricWire),
		tally:  t,
	}, nil
}

func (s *clusterSim) check(o *outcome) error {
	var lat int64
	for _, n := range s.c.Nodes {
		lat += n.Lat.Count()
	}
	if o.tally.rpcs <= 0 || o.tally.flows <= 0 || lat == 0 {
		return fmt.Errorf("cluster completed %d RPCs (%d latency records) and delivered %d flow packets",
			o.tally.rpcs, lat, o.tally.flows)
	}
	for _, sw := range s.c.Switches {
		if err := sw.CheckConservation(); err != nil {
			return err
		}
	}
	return nil
}
