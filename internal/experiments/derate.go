package experiments

import (
	"fmt"

	"ccnic"
	"ccnic/internal/platform"
	"ccnic/internal/stats"
)

// The interconnect-sensitivity experiments are one derate-point table. Each
// design (an interface over a protocol backend) runs on a Sapphire Rapids
// base whose interconnect is derated in latency, where it reads the
// unloaded 64B median, or in bandwidth, where it reads the closed-loop peak
// rate. fig21 sweeps the default-protocol designs, proto-sweep crosses the
// protocols, and ext-cxl is the scale-1.0 column over CXL.

func init() {
	register(&Experiment{
		ID:    "fig21",
		Title: "Sensitivity to interconnect latency and bandwidth (uncore derating)",
		Paper: "loopback latency tracks interconnect latency ~1:1; 40% bandwidth yields 39% throughput; CC-NIC's margin holds",
		run:   runFig21,
	})
	register(&Experiment{
		ID:    "proto-sweep",
		Title: "EXT (Fig 21 design space): UPI vs CXL vs PCIe across latency and signaling-rate sensitivity points",
		Paper: "Fig 21 sweeps interconnect derating for UPI alone; this reruns the sweep with the CXL.cache/CXL.mem backend as a real protocol, not a projected parameter set, against the PCIe E810 reference",
		run:   runProtoSweep,
	})
	register(&Experiment{
		ID:    "ext-cxl",
		Title: "EXT (§5.9/§6): CC-NIC on a CXL 2.0 x16 attached NIC, over the CXL.cache/CXL.mem backend",
		Paper: "Fig 21 argues CC-NIC's benefits hold at CXL-like latency (170-250ns) and bandwidth; this runs the full stack there",
		run:   runExtCXL,
	})
}

// design is one series of the table: an interface over a coherence protocol
// backend. An empty proto follows Options.Protocol (-protocol).
type design struct {
	name  string
	iface ccnic.Interface
	proto string
}

var (
	ccnicUPI = design{"CC-NIC/UPI", ccnic.CCNIC, "UPI"}
	ccnicCXL = design{"CC-NIC/CXL", ccnic.CCNIC, "CXL"}
	unoptCXL = design{"Unopt/CXL", ccnic.UnoptUPI, "CXL"}
	// The E810 moves its data by DMA; the coherent backend is idle.
	e810PCIe = design{"E810 PCIe", ccnic.E810, "UPI"}
)

// derateSweep is the table: every design at every latency scale and every
// bandwidth scale.
type derateSweep struct {
	designs             []design
	latScales, bwScales []float64
	// peakPkt is the packet size of the bandwidth points' peak rate.
	peakPkt int
}

// derateScales returns Fig 21's latency and bandwidth derate axes.
func derateScales(opt Options) (lat, bw []float64) {
	if opt.Quick {
		return []float64{1.0, 1.25}, []float64{1.0, 0.55}
	}
	return []float64{1.0, 1.11, 1.25, 1.4, 1.55}, []float64{1.0, 0.85, 0.7, 0.55, 0.4}
}

// sweepQueues is the queue count of the table's peak-rate points.
func sweepQueues(opt Options) int {
	if opt.Quick {
		return 4
	}
	return 16
}

// run measures every point in parallel and returns, per design, the
// unloaded 64B median [ns] on one queue at each latency scale and the peak
// [Mpps] on sweepQueues at each bandwidth scale.
func (s derateSweep) run(opt Options) (lat, bw [][]float64) {
	nl, per := len(s.latScales), len(s.latScales)+len(s.bwScales)
	vals := make([]float64, len(s.designs)*per)
	parallel(len(vals), func(i int) {
		d, j := s.designs[i/per], i%per
		mk := func(plat *platform.Platform, q int) *ccnic.Testbed {
			return opt.testbed(ccnic.Config{
				Plat: plat, Interface: d.iface, Protocol: d.proto,
				Queues: q, HostPrefetch: true,
			})
		}
		if j < nl {
			res := mk(platform.SPR().Derate(s.latScales[j], 1.0), 1).RunLoopback(unloadedOpts(opt))
			vals[i] = float64(res.Latency.Median().Nanoseconds())
		} else {
			res := mk(platform.SPR().Derate(1.0, s.bwScales[j-nl]), sweepQueues(opt)).RunLoopback(peakOpts(s.peakPkt, opt))
			vals[i] = res.Mpps()
		}
	})
	for k := range s.designs {
		lat = append(lat, vals[k*per:k*per+nl])
		bw = append(bw, vals[k*per+nl:(k+1)*per])
	}
	return lat, bw
}

// panel renders one axis of the table as series, placing each scale on the
// x axis with x.
func (s derateSweep) panel(unit, xLabel string, scales []float64, vals [][]float64, x func(scale float64) float64) []*stats.Series {
	out := make([]*stats.Series, len(s.designs))
	for i, d := range s.designs {
		out[i] = &stats.Series{Name: d.name + " " + unit, XLabel: xLabel}
		for j, sc := range scales {
			out[i].Add(x(sc), vals[i][j])
		}
	}
	return out
}

func runFig21(opt Options) *Report {
	s := derateSweep{
		designs: []design{{"CC-NIC", ccnic.CCNIC, ""}, {"UPI unopt", ccnic.UnoptUPI, ""}},
		peakPkt: 1536,
	}
	s.latScales, s.bwScales = derateScales(opt)
	lat, bw := s.run(opt)
	return &Report{
		ID:    "fig21",
		Title: "Interconnect performance sensitivity",
		Groups: []SeriesGroup{
			{Name: "(a) 64B unloaded latency vs interconnect latency (CXL est. 170-250ns)",
				Series: s.panel("[ns]", "interconnect lat [ns]", s.latScales, lat, func(sc float64) float64 {
					return platform.SPR().Derate(sc, 1.0).RemoteAccess().Nanoseconds()
				})},
			{Name: "(b) 1.5KB throughput vs interconnect bandwidth",
				Series: s.panel("[Mpps]", "interconnect tput [GB/s]", s.bwScales, bw, func(sc float64) float64 {
					return platform.SPR().Derate(1.0, sc).UPIBandwidth
				})},
		},
	}
}

// runProtoSweep is the cross-protocol design-space sweep: the same CC-NIC
// design point over the UPI/MESIF backend and over the CXL.cache/CXL.mem
// backend, with the PCIe E810 as the conventional reference. The PCIe
// series is flat by construction — Derate scales only the coherent attach
// points — which is exactly the comparison the panel wants: how much
// derating each coherent protocol absorbs before falling back to DMA-class
// behavior.
func runProtoSweep(opt Options) *Report {
	s := derateSweep{designs: []design{ccnicUPI, ccnicCXL, e810PCIe}, peakPkt: 1536}
	s.latScales, s.bwScales = derateScales(opt)
	lat, bw := s.run(opt)
	percent := func(sc float64) float64 { return sc * 100 }
	return &Report{
		ID:    "proto-sweep",
		Title: "Cross-protocol interconnect sensitivity",
		Groups: []SeriesGroup{
			{Name: fmt.Sprintf("(a) 64B unloaded latency vs latency derate (SPR base; CXL backend at %.0f-%.0fns)",
				platform.SPR().CXL.Snoop.Nanoseconds(), platform.SPR().CXL.MemRead.Nanoseconds()),
				Series: s.panel("[ns]", "interconnect lat derate [%]", s.latScales, lat, percent)},
			{Name: "(b) 1.5KB throughput vs signaling rate",
				Series: s.panel("[Mpps]", "signaling rate [%]", s.bwScales, bw, percent)},
		},
		Notes: []string{
			"the CXL series runs the asymmetric CXL.cache/CXL.mem backend (snoop filter, bias, no migration), not a re-parameterized UPI",
			"PCIe is flat by construction: Derate scales the coherent attach points only",
		},
	}
}

// runExtCXL is the headline loopback comparison at the CXL attach point:
// CC-NIC and the unoptimized interface over the CXL backend, with the PCIe
// E810 (which a CXL slot would replace) as the baseline. It is the
// scale-1.0 column of proto-sweep's table, with a 64B peak.
func runExtCXL(opt Options) *Report {
	s := derateSweep{
		designs:   []design{ccnicCXL, unoptCXL, e810PCIe},
		latScales: []float64{1.0}, bwScales: []float64{1.0},
		peakPkt: 64,
	}
	lat, bw := s.run(opt)
	t := &stats.Table{
		Name:    fmt.Sprintf("64B loopback over CXL 2.0 x16 on SPR (peak on %d cores, unloaded on 1)", sweepQueues(opt)),
		Columns: []string{"interface", "peak Mpps", "unloaded median [ns]"},
	}
	for i, d := range s.designs {
		t.AddRow(d.name, fmt.Sprintf("%.1f", bw[i][0]), fmt.Sprintf("%.0f", lat[i][0]))
	}
	return &Report{
		ID:     "ext-cxl",
		Title:  "CC-NIC on CXL",
		Tables: []*stats.Table{t},
		Notes: []string{
			"a prediction, not a reproduction: no CXL-attached NIC exists to compare against",
			"the same CXL.cache/CXL.mem backend and unloaded points as proto-sweep's 100% column",
		},
	}
}
