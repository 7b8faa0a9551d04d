// Package prop is the randomized property harness behind the model's
// deepest validation: it generates random but well-formed simulation
// configurations — platform, interface design point, ring layout and pool
// knobs, queue counts, packet sizes, load mode, workload — runs each as a
// short simulation with the online invariant engine attached, and exposes a
// result fingerprint precise enough to assert bit-level determinism by
// running the same scenario twice.
//
// The harness is also the engine's own regression rig: Run accepts a
// deliberate protocol mutation, and the self-tests assert that every
// mutated run is caught by the engine no matter which random configuration
// it lands on.
package prop

import (
	"fmt"
	"math/rand"

	"ccnic"
	"ccnic/internal/check"
	"ccnic/internal/coherence"
	"ccnic/internal/device"
	"ccnic/internal/fault"
	"ccnic/internal/kvstore"
	"ccnic/internal/ring"
	"ccnic/internal/sim"
	"ccnic/internal/traffic"
)

// Interface design points the generator draws from.
const (
	IfaceCCNIC = "ccnic" // coherent UPI NIC, perturbed CC-NIC knobs
	IfaceUnopt = "unopt" // unoptimized-UPI baseline
	IfaceE810  = "e810"  // PCIe NIC, E810 parameters
	IfaceCX6   = "cx6"   // PCIe NIC, CX6 parameters
)

// Scenario is one generated configuration. All fields are value types, so a
// Scenario can be re-run and printed on failure.
type Scenario struct {
	Seed     int64
	Platform string // "ICX" or "SPR"
	Iface    string
	Workload string // "loopback" or "kv"
	Queues   int
	PktSize  int
	Rate     float64 // packets/s per queue; 0 = closed loop

	// UPI design-point knobs (IfaceCCNIC only; Unopt is fixed by design).
	Cfg device.UPIConfig

	// Faults optionally arms a fault plan (a fault.ParsePlan spec such as
	// "seed=3,dbdrop=0.01"). The zero value runs fault-free, so existing
	// scenario fingerprints are unchanged.
	Faults string

	// Protocol selects the coherent-interconnect backend ("UPI" or "CXL",
	// parsed by coherence.ParseProtocol). The zero value runs UPI, so
	// pre-protocol scenario fingerprints are unchanged.
	Protocol string
}

func (sc Scenario) String() string {
	s := fmt.Sprintf("seed=%d %s/%s %s q=%d pkt=%d rate=%.0f layout=%v recycle=%v small=%v seq=%v nicmgmt=%v ring=%d",
		sc.Seed, sc.Platform, sc.Iface, sc.Workload, sc.Queues, sc.PktSize, sc.Rate,
		sc.Cfg.Layout, sc.Cfg.Recycle, sc.Cfg.SmallBufs, sc.Cfg.Sequential, sc.Cfg.NICBufMgmt, sc.Cfg.RingLines)
	if sc.Faults != "" {
		s += " faults=" + sc.Faults
	}
	if sc.Protocol != "" {
		s += " proto=" + sc.Protocol
	}
	return s
}

// Generate derives a scenario deterministically from seed.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{Seed: seed}

	sc.Platform = [...]string{"ICX", "SPR"}[rng.Intn(2)]
	sc.Iface = [...]string{IfaceCCNIC, IfaceCCNIC, IfaceUnopt, IfaceE810, IfaceCX6}[rng.Intn(5)]
	sc.Queues = 1 + rng.Intn(3)
	sc.PktSize = [...]int{64, 128, 256, 1024}[rng.Intn(4)]
	if rng.Intn(3) == 0 {
		sc.Rate = 1e6 + float64(rng.Intn(3))*1e6 // open loop, below saturation
	}
	// KV rides the overlay device, which wraps the CC-NIC front end; keep
	// it on the coherent design points.
	if sc.Iface == IfaceCCNIC && rng.Intn(4) == 0 {
		sc.Workload = "kv"
	} else {
		sc.Workload = "loopback"
	}

	if sc.Iface == IfaceCCNIC {
		// Perturb the CC-NIC design point across its safe knob space.
		cfg := device.CCNICConfig()
		cfg.Layout = []ring.Layout{ring.Grouped, ring.Packed, ring.Padded}[rng.Intn(3)]
		cfg.InlineSignal = rng.Intn(4) != 0
		cfg.Recycle = rng.Intn(2) == 0
		cfg.SmallBufs = rng.Intn(2) == 0
		cfg.Sequential = rng.Intn(4) == 0
		cfg.NICBufMgmt = rng.Intn(4) != 0
		cfg.SharedPool = true // NIC-side management requires a shared pool
		cfg.RingLines = []int{64, 128, 256}[rng.Intn(3)]
		cfg.NICBurst = []int{8, 16, 32}[rng.Intn(3)]
		sc.Cfg = cfg
	}
	// Protocol is drawn last so the draws above — and with them every
	// pre-protocol scenario shape — are unchanged for a given seed.
	sc.Protocol = [...]string{"UPI", "CXL"}[rng.Intn(2)]
	return sc
}

// Outcome captures everything observable about a run: a fingerprint precise
// to the bit (for determinism assertions), the engine's verdicts, and scale
// counters.
type Outcome struct {
	Fingerprint string
	SimEvents   uint64
	Checks      uint64
	Violations  []error
}

// Run executes the scenario once with the invariant engine attached in
// collect mode. mut arms a deliberate protocol defect (coherence.MutateNone
// for a clean run); fullEvery throttles the engine's whole-model scans.
func (sc Scenario) Run(mut coherence.Mutation, fullEvery uint64) Outcome {
	cfg := ccnic.Config{
		Platform:     sc.Platform,
		Interface:    ccnic.CCNIC,
		Queues:       sc.Queues,
		HostPrefetch: true,
		// An explicit protocol and plan keep the process-wide defaults
		// out of the scenario: the empty spec means UPI and fault-free.
		Protocol: "UPI",
		Faults:   &fault.Plan{},
	}
	if sc.Protocol != "" {
		cfg.Protocol = sc.Protocol
	}
	if sc.Faults != "" {
		plan, err := fault.ParsePlan(sc.Faults)
		if err != nil {
			panic("prop: bad fault plan: " + err.Error())
		}
		cfg.Faults = plan
	}
	switch sc.Iface {
	case IfaceCCNIC:
		cfg.UPI = &sc.Cfg
	case IfaceUnopt:
		cfg.Interface = ccnic.UnoptUPI
	case IfaceE810:
		cfg.Interface = ccnic.E810
	case IfaceCX6:
		cfg.Interface = ccnic.CX6
	default:
		panic("prop: unknown interface " + sc.Iface)
	}
	if sc.Workload == "kv" {
		// KV rides the overlay device: the scenario's front-end design
		// point bridged to a CX6, one forwarding thread per queue.
		cfg.Interface = ccnic.OverlayCCNIC
		if sc.Iface == IfaceUnopt {
			cfg.Interface = ccnic.OverlayUnopt
		}
	}
	tb := ccnic.NewTestbed(cfg)
	// Construction runs no events, so the engine and the mutation are in
	// place before the first probe fires.
	e := check.Attach(tb.Sys)
	e.SetCollect(true)
	e.SetFullEvery(fullEvery)
	tb.Sys.SetMutation(mut)

	var fp string
	switch sc.Workload {
	case "loopback":
		res := tb.RunLoopback(ccnic.LoopbackOptions{
			PktSize: sc.PktSize, Rate: sc.Rate,
			Warmup: 10 * sim.Microsecond, Measure: 30 * sim.Microsecond,
		})
		fp = fmt.Sprintf("pps=%x gbps=%x lat[n=%d med=%d max=%d] dropped=%d",
			res.PPS, res.Gbps, res.Latency.Count(), res.Latency.Median(), res.Latency.Max(), res.Dropped)
	case "kv":
		res := kvstore.Run(kvstore.Config{
			Sys: tb.Sys, Dev: tb.Dev, Hosts: tb.Hosts,
			Store:        kvstore.NewStore(tb.Sys, 0, 10_000, traffic.Ads(3)),
			Seed:         sc.Seed,
			RatePerQueue: 10e6,
			Warmup:       10 * sim.Microsecond, Measure: 30 * sim.Microsecond,
		})
		fp = fmt.Sprintf("ops=%x gets=%d sets=%d", res.OpsPerSec, res.Gets, res.Sets)
	default:
		panic("prop: unknown workload " + sc.Workload)
	}
	return Outcome{
		Fingerprint: fp + fmt.Sprintf(" events=%d", tb.Kernel.Events()),
		SimEvents:   tb.Kernel.Events(),
		Checks:      e.Checks(),
		Violations:  e.Violations(),
	}
}
