package experiments

import (
	"fmt"

	"ccnic"
	"ccnic/internal/device"
	"ccnic/internal/ring"
	"ccnic/internal/sim"
	"ccnic/internal/stats"
)

func init() {
	register(&Experiment{
		ID:    "fig11",
		Title: "Throughput-latency: CC-NIC vs unoptimized UPI vs PCIe NICs (ICX, 64B and 1.5KB)",
		Paper: "CC-NIC: 1.7x/4.3x higher peak packet rate than E810/CX6; 77-86% lower minimum latency; unopt UPI 79% below CC-NIC",
		Run:   runFig11,
	})
	register(&Experiment{
		ID:    "fig12",
		Title: "Loopback throughput-latency by core count: CC-NIC and CX6 on ICX",
		Paper: "CC-NIC reaches 330 Mpps (64B) and 403 Gbps (1.5KB); CX6 caps at 76 Mpps / 200 Gbps",
		Run:   runFig12,
	})
	register(&Experiment{
		ID:    "fig13",
		Title: "Loopback throughput-latency by core count: CC-NIC on SPR (terabit UPI)",
		Paper: "peaks at 1520 Mpps (64B) and 986 Gbps (1.5KB), ~96% of measured UPI throughput",
		Run:   runFig13,
	})
	register(&Experiment{
		ID:    "fig14",
		Title: "Design features: (a) inline vs register signaling, (b) descriptor layouts",
		Paper: "inline signals: -37% min latency, +1.3x rate; grouped layout: 3.0x padded throughput at padded's latency",
		Run:   runFig14,
	})
	register(&Experiment{
		ID:    "fig15",
		Title: "Buffer management ablation: recycling, small buffers, NIC-side management",
		Paper: "removing recycling -20%, small buffers -37% more, shared management -46% more; latency rises 1.3x",
		Run:   runFig15,
	})
	register(&Experiment{
		ID:    "fig16",
		Title: "Packet rate vs TX and RX batch size: CC-NIC vs E810",
		Paper: "unbatched TX: CC-NIC keeps 27% of peak vs E810's 12%; RX batching matters little for both",
		Run:   runFig16,
	})
	register(&Experiment{
		ID:    "fig18",
		Title: "Same-socket vs cross-UPI single-thread loopback",
		Paper: "the interconnect accounts for 40-50% of loopback latency; same-socket gives 1.5x per-thread throughput",
		Run:   runFig18,
	})
	register(&Experiment{
		ID:    "fig20",
		Title: "Hardware prefetching sensitivity (host/NIC/both) on SPR",
		Paper: "host prefetching gains 1.2x for CC-NIC 64B; any prefetching hurts the unoptimized design by up to 7%",
		Run:   runFig20,
	})
}

// build constructs a fresh testbed (one per measurement: the kernel is
// consumed by a run).
func build(platName string, iface ccnic.Interface, queues int, mut func(*ccnic.Config)) *ccnic.Testbed {
	cfg := ccnic.Config{
		Platform:     platName,
		Interface:    iface,
		Queues:       queues,
		HostPrefetch: true, // the paper's default operating point
	}
	if mut != nil {
		mut(&cfg)
	}
	return ccnic.NewTestbed(cfg)
}

// peakOpts is the closed-loop peak-rate measurement: a 128-packet window
// per queue, 30us of warm-up and 100us measured (20/60us at -quick).
func peakOpts(pkt int, opt Options) ccnic.LoopbackOptions {
	o := ccnic.LoopbackOptions{PktSize: pkt, Window: 128,
		Warmup: 30 * sim.Microsecond, Measure: 100 * sim.Microsecond}
	if opt.Quick {
		o.Warmup, o.Measure = 20*sim.Microsecond, 60*sim.Microsecond
	}
	return o
}

// unloadedOpts is the unloaded-latency measurement: 64B packets at 100 kpps
// per queue, 30us of warm-up and 120us measured (20/80us at -quick).
func unloadedOpts(opt Options) ccnic.LoopbackOptions {
	o := ccnic.LoopbackOptions{PktSize: 64, Rate: 100_000,
		Warmup: 30 * sim.Microsecond, Measure: 120 * sim.Microsecond}
	if opt.Quick {
		o.Warmup, o.Measure = 20*sim.Microsecond, 80*sim.Microsecond
	}
	return o
}

// curvePoints measures a throughput-latency curve: a closed-loop probe
// finds the peak, then open-loop runs at fractions of it.
func curvePoints(mk func() *ccnic.Testbed, pkt int, fractions []float64, opt Options) *stats.Series {
	probe := peakOpts(pkt, opt)
	tb := mk()
	peak := tb.RunLoopback(probe)
	perQueue := peak.PPS / float64(tb.Dev.NumQueues())

	s := &stats.Series{XLabel: "throughput [Mpps]"}
	type pt struct{ x, y float64 }
	pts := make([]pt, len(fractions))
	parallel(len(fractions), func(i int) {
		o := probe
		o.Rate = perQueue * fractions[i]
		res := mk().RunLoopback(o)
		pts[i] = pt{res.Mpps(), res.Latency.Median().Microseconds()}
	})
	for _, p := range pts {
		s.Add(p.x, p.y)
	}
	// The saturation point itself.
	s.Add(peak.Mpps(), peak.Latency.Median().Microseconds())
	return s
}

func fractions(opt Options) []float64 {
	if opt.Quick {
		return []float64{0.2, 0.8}
	}
	return []float64{0.05, 0.2, 0.4, 0.6, 0.8, 0.9}
}

func runFig11(opt Options) *Report {
	queues := 16
	if opt.Quick {
		queues = 6
	}
	ifaces := []ccnic.Interface{ccnic.CCNIC, ccnic.UnoptUPI, ccnic.E810, ccnic.CX6}
	var groups []SeriesGroup
	for _, pkt := range []int{64, 1536} {
		var series []*stats.Series
		for _, iface := range ifaces {
			iface := iface
			s := curvePoints(func() *ccnic.Testbed {
				return build("ICX", iface, queues, nil)
			}, pkt, fractions(opt), opt)
			s.Name = iface.String() + " [us]"
			series = append(series, s)
		}
		groups = append(groups, SeriesGroup{
			Name:   fmt.Sprintf("%dB packets, %d cores (ICX): median latency vs offered throughput", pkt, queues),
			Series: series,
		})
	}
	return &Report{ID: "fig11", Title: "Interface comparison on ICX", Groups: groups}
}

func coreCountCurves(platName string, iface ccnic.Interface, counts []int, pkt int, opt Options) []*stats.Series {
	out := make([]*stats.Series, len(counts))
	parallel(len(counts), func(i int) {
		n := counts[i]
		s := curvePoints(func() *ccnic.Testbed {
			return build(platName, iface, n, nil)
		}, pkt, fractions(opt), opt)
		s.Name = fmt.Sprintf("%d cores [us]", n)
		out[i] = s
	})
	return out
}

func runFig12(opt Options) *Report {
	counts := []int{1, 2, 4, 8, 12, 16}
	if opt.Quick {
		counts = []int{1, 4, 8}
	}
	var groups []SeriesGroup
	for _, pkt := range []int{64, 1536} {
		for _, iface := range []ccnic.Interface{ccnic.CCNIC, ccnic.CX6} {
			groups = append(groups, SeriesGroup{
				Name:   fmt.Sprintf("%s, %dB (ICX)", iface, pkt),
				Series: coreCountCurves("ICX", iface, counts, pkt, opt),
			})
		}
	}
	return &Report{ID: "fig12", Title: "Core-count scaling on ICX", Groups: groups}
}

func runFig13(opt Options) *Report {
	counts := []int{1, 4, 8, 16, 32, 56}
	if opt.Quick {
		counts = []int{1, 8, 24}
	}
	var groups []SeriesGroup
	for _, pkt := range []int{64, 1536} {
		groups = append(groups, SeriesGroup{
			Name:   fmt.Sprintf("CC-NIC, %dB (SPR terabit UPI)", pkt),
			Series: coreCountCurves("SPR", ccnic.CCNIC, counts, pkt, opt),
		})
	}
	return &Report{ID: "fig13", Title: "CC-NIC on Sapphire Rapids", Groups: groups}
}

func runFig14(opt Options) *Report {
	queues := 24
	if opt.Quick {
		queues = 6
	}
	mkCfg := func(mut func(*device.UPIConfig)) func() *ccnic.Testbed {
		return func() *ccnic.Testbed {
			return build("SPR", ccnic.CCNIC, queues, func(c *ccnic.Config) {
				u := device.CCNICConfig()
				if mut != nil {
					mut(&u)
				}
				c.UPI = &u
			})
		}
	}
	fr := fractions(opt)
	var a, b []*stats.Series

	inline := curvePoints(mkCfg(nil), 64, fr, opt)
	inline.Name = "Inline [us]"
	reg := curvePoints(mkCfg(func(u *device.UPIConfig) { u.InlineSignal = false }), 64, fr, opt)
	reg.Name = "Reg [us]"
	a = append(a, inline, reg)

	for _, lay := range []struct {
		name string
		l    ring.Layout
	}{{"Opt", ring.Grouped}, {"Pack", ring.Packed}, {"Pad", ring.Padded}} {
		lay := lay
		s := curvePoints(mkCfg(func(u *device.UPIConfig) { u.Layout = lay.l }), 64, fr, opt)
		s.Name = lay.name + " [us]"
		b = append(b, s)
	}
	return &Report{
		ID:    "fig14",
		Title: "Signaling and descriptor layout",
		Groups: []SeriesGroup{
			{Name: fmt.Sprintf("(a) signaling, 64B, %d cores (SPR)", queues), Series: a},
			{Name: fmt.Sprintf("(b) descriptor layout, 64B, %d cores (SPR)", queues), Series: b},
		},
	}
}

func runFig15(opt Options) *Report {
	queues := 32
	if opt.Quick {
		queues = 6
	}
	cases := []struct {
		name string
		mut  func(*device.UPIConfig)
	}{
		{"Optimized design", nil},
		{"Buf recycling removed", func(u *device.UPIConfig) {
			u.Recycle = false
			u.Sequential = true
		}},
		{"Small bufs removed", func(u *device.UPIConfig) {
			u.Recycle = false
			u.Sequential = true
			u.SmallBufs = false
		}},
		{"NIC buf management removed", func(u *device.UPIConfig) {
			u.Recycle = false
			u.Sequential = true
			u.SmallBufs = false
			u.NICBufMgmt = false
			u.SharedPool = false
		}},
	}
	t := &stats.Table{
		Name:    fmt.Sprintf("buffer management ablation: 64B, %d cores (SPR)", queues),
		Columns: []string{"configuration", "Mpps", "median lat [us]", "vs opt"},
	}
	var base float64
	for _, c := range cases {
		c := c
		mk := func() *ccnic.Testbed {
			return build("SPR", ccnic.CCNIC, queues, func(cc *ccnic.Config) {
				u := device.CCNICConfig()
				if c.mut != nil {
					c.mut(&u)
				}
				cc.UPI = &u
			})
		}
		res := mk().RunLoopback(peakOpts(64, opt))
		if base == 0 {
			base = res.PPS
		}
		t.AddRow(c.name,
			fmt.Sprintf("%.1f", res.Mpps()),
			fmt.Sprintf("%.2f", res.Latency.Median().Microseconds()),
			fmt.Sprintf("%.0f%%", res.PPS/base*100))
	}
	return &Report{ID: "fig15", Title: "Buffer management features", Tables: []*stats.Table{t}}
}

func runFig16(opt Options) *Report {
	queues := 16
	if opt.Quick {
		queues = 4
	}
	batches := []int{1, 2, 4, 8, 16, 32}
	if opt.Quick {
		batches = []int{1, 8, 32}
	}
	var groups []SeriesGroup
	for _, dir := range []string{"TX", "RX"} {
		var series []*stats.Series
		for _, iface := range []ccnic.Interface{ccnic.CCNIC, ccnic.E810} {
			iface := iface
			s := &stats.Series{Name: iface.String(), XLabel: dir + " batch"}
			var peak float64
			vals := map[int]float64{}
			for _, b := range batches {
				o := peakOpts(64, opt)
				o.TxBatch, o.RxBatch = 32, 32
				if dir == "TX" {
					o.TxBatch = b
					// An unbatched sender also keeps fewer packets
					// in flight, as the paper's DPDK generator does.
					if b < 16 {
						o.Window = 4 * b
					}
				} else {
					o.RxBatch = b
				}
				res := build("ICX", iface, queues, nil).RunLoopback(o)
				vals[b] = res.PPS
				if res.PPS > peak {
					peak = res.PPS
				}
			}
			for _, b := range batches {
				s.Add(float64(b), vals[b]/peak)
			}
			series = append(series, s)
		}
		groups = append(groups, SeriesGroup{
			Name:   fmt.Sprintf("(%s batching) 64B rate relative to peak, %d cores", dir, queues),
			Series: series,
		})
	}
	return &Report{ID: "fig16", Title: "Batching effects", Groups: groups}
}

func runFig18(opt Options) *Report {
	fr := fractions(opt)
	remote := curvePoints(func() *ccnic.Testbed {
		return build("SPR", ccnic.CCNIC, 1, nil)
	}, 64, fr, opt)
	remote.Name = "Remote-socket NIC [us]"
	same := curvePoints(func() *ccnic.Testbed {
		return build("SPR", ccnic.CCNIC, 1, func(c *ccnic.Config) { c.SameSocket = true })
	}, 64, fr, opt)
	same.Name = "Same-socket NIC [us]"
	return &Report{
		ID:    "fig18",
		Title: "Interconnect contribution to loopback latency",
		Groups: []SeriesGroup{{
			Name:   "single-thread 64B loopback (SPR)",
			Series: []*stats.Series{remote, same},
		}},
	}
}

func runFig20(opt Options) *Report {
	queues := 16
	if opt.Quick {
		queues = 4
	}
	settings := []struct {
		name      string
		host, nic bool
	}{
		{"Both on", true, true},
		{"Host on", true, false},
		{"NIC on", false, true},
		{"off (baseline)", false, false},
	}
	t := &stats.Table{
		Name:    fmt.Sprintf("packet rate relative to prefetching disabled (SPR, %d cores)", queues),
		Columns: []string{"design/size", "Both on", "Host on", "NIC on"},
	}
	for _, c := range []struct {
		name  string
		iface ccnic.Interface
		pkt   int
	}{
		{"CC-NIC 64B", ccnic.CCNIC, 64},
		{"CC-NIC 1.5KB", ccnic.CCNIC, 1536},
		{"Unopt 64B", ccnic.UnoptUPI, 64},
		{"Unopt 1.5KB", ccnic.UnoptUPI, 1536},
	} {
		c := c
		vals := map[string]float64{}
		for _, st := range settings {
			st := st
			tb := build("SPR", c.iface, queues, func(cc *ccnic.Config) {
				cc.HostPrefetch = st.host
				cc.NICPrefetch = st.nic
			})
			vals[st.name] = tb.RunLoopback(peakOpts(c.pkt, opt)).PPS
		}
		base := vals["off (baseline)"]
		t.AddRow(c.name,
			fmt.Sprintf("%.2f", vals["Both on"]/base),
			fmt.Sprintf("%.2f", vals["Host on"]/base),
			fmt.Sprintf("%.2f", vals["NIC on"]/base))
	}
	return &Report{ID: "fig20", Title: "Hardware prefetching impact", Tables: []*stats.Table{t}}
}
