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
	register(
		&Experiment{ID: "fig11", run: runFig11,
			Title: "Throughput-latency: CC-NIC vs unoptimized UPI vs PCIe NICs (ICX, 64B and 1.5KB)",
			Paper: "CC-NIC: 1.7x/4.3x higher peak packet rate than E810/CX6; 77-86% lower minimum latency; unopt UPI 79% below CC-NIC"},
		&Experiment{ID: "fig12", run: runFig12,
			Title: "Loopback throughput-latency by core count: CC-NIC and CX6 on ICX",
			Paper: "CC-NIC reaches 330 Mpps (64B) and 403 Gbps (1.5KB); CX6 caps at 76 Mpps / 200 Gbps"},
		&Experiment{ID: "fig13", run: runFig13,
			Title: "Loopback throughput-latency by core count: CC-NIC on SPR (terabit UPI)",
			Paper: "peaks at 1520 Mpps (64B) and 986 Gbps (1.5KB), ~96% of measured UPI throughput"},
		&Experiment{ID: "fig14", run: runFig14,
			Title: "Design features: (a) inline vs register signaling, (b) descriptor layouts",
			Paper: "inline signals: -37% min latency, +1.3x rate; grouped layout: 3.0x padded throughput at padded's latency"},
		&Experiment{ID: "fig15", run: runFig15,
			Title: "Buffer management ablation: recycling, small buffers, NIC-side management",
			Paper: "removing recycling -20%, small buffers -37% more, shared management -46% more; latency rises 1.3x"},
		&Experiment{ID: "fig16", run: runFig16,
			Title: "Packet rate vs TX and RX batch size: CC-NIC vs E810",
			Paper: "unbatched TX: CC-NIC keeps 27% of peak vs E810's 12%; RX batching matters little for both"},
		&Experiment{ID: "fig18", run: runFig18,
			Title: "Same-socket vs cross-UPI single-thread loopback",
			Paper: "the interconnect accounts for 40-50% of loopback latency; same-socket gives 1.5x per-thread throughput"},
		&Experiment{ID: "fig20", run: runFig20,
			Title: "Hardware prefetching sensitivity (host/NIC/both) on SPR",
			Paper: "host prefetching gains 1.2x for CC-NIC 64B; any prefetching hurts the unoptimized design by up to 7%"},
	)
}

// loopCfg is a loopback point at the paper's default operating point
// (host prefetching on).
func loopCfg(platName string, iface ccnic.Interface, queues int) ccnic.Config {
	return ccnic.Config{Platform: platName, Interface: iface, Queues: queues, HostPrefetch: true}
}

// ccnicWith is a CC-NIC point on SPR whose design point is the optimized
// one edited by mut (nil keeps it): the UPI ablations of Figs 14 and 15.
func ccnicWith(queues int, mut func(*device.UPIConfig)) ccnic.Config {
	u := device.CCNICConfig()
	if mut != nil {
		mut(&u)
	}
	cfg := loopCfg("SPR", ccnic.CCNIC, queues)
	cfg.UPI = &u
	return cfg
}

// peakOpts is the closed-loop peak-rate measurement: a 128-packet window
// per queue, 30us of warm-up and 100us measured (20/60us at -quick).
func peakOpts(pkt int, opt Options) ccnic.LoopbackOptions {
	return ccnic.LoopbackOptions{PktSize: pkt, Window: 128,
		Warmup:  scaled(opt, 30*sim.Microsecond, 20*sim.Microsecond),
		Measure: scaled(opt, 100*sim.Microsecond, 60*sim.Microsecond)}
}

// unloadedOpts is the unloaded-latency measurement: 64B packets at 100 kpps
// per queue, 30us of warm-up and 120us measured (20/80us at -quick).
func unloadedOpts(opt Options) ccnic.LoopbackOptions {
	return ccnic.LoopbackOptions{PktSize: 64, Rate: 100_000,
		Warmup:  scaled(opt, 30*sim.Microsecond, 20*sim.Microsecond),
		Measure: scaled(opt, 120*sim.Microsecond, 80*sim.Microsecond)}
}

// curve is one throughput-latency curve: a closed-loop probe of cfg at pkt
// finds the peak, then open-loop runs offer fractions of it.
type curve struct {
	name string
	cfg  ccnic.Config
	pkt  int
}

// panel is one group of curves.
type panel struct {
	name   string
	curves []curve
}

// panels measures every curve of ps in two rounds, every probe and then
// the fractions of every probe's peak, and returns one series group per
// panel; a curve's series is its fraction points, then its saturation
// point.
func (o Options) panels(ps ...panel) []SeriesGroup {
	var cs []curve
	for _, p := range ps {
		cs = append(cs, p.curves...)
	}
	probes := make([]point, len(cs))
	for i, c := range cs {
		probes[i] = point{c.cfg, loopRun(peakOpts(c.pkt, o))}
	}
	peaks := o.read(probes...)
	fr := scaled(o, []float64{0.05, 0.2, 0.4, 0.6, 0.8, 0.9}, []float64{0.2, 0.8})
	var pts []point
	for i, c := range cs {
		perQueue := peaks[i].pps / float64(o.resolve(c.cfg).Queues)
		for _, f := range fr {
			lo := peakOpts(c.pkt, o)
			lo.Rate = perQueue * f
			pts = append(pts, point{c.cfg, loopRun(lo)})
		}
	}
	rds := o.read(pts...)
	groups := make([]SeriesGroup, len(ps))
	for g, p := range ps {
		groups[g].Name = p.name
		for _, c := range p.curves {
			s := &stats.Series{Name: c.name, XLabel: "throughput [Mpps]"}
			for _, rd := range rds[:len(fr)] {
				s.Add(rd.mpps(), rd.median.Microseconds())
			}
			s.Add(peaks[0].mpps(), peaks[0].median.Microseconds())
			rds, peaks = rds[len(fr):], peaks[1:]
			groups[g].Series = append(groups[g].Series, s)
		}
	}
	return groups
}

func runFig11(opt Options) *Report {
	queues := scaled(opt, 16, 6)
	var ps []panel
	for _, pkt := range []int{64, 1536} {
		p := panel{name: fmt.Sprintf("%dB packets, %d cores (ICX): median latency vs offered throughput", pkt, queues)}
		for _, iface := range []ccnic.Interface{ccnic.CCNIC, ccnic.UnoptUPI, ccnic.E810, ccnic.CX6} {
			p.curves = append(p.curves, curve{iface.String() + " [us]", loopCfg("ICX", iface, queues), pkt})
		}
		ps = append(ps, p)
	}
	return &Report{Title: "Interface comparison on ICX", Groups: opt.panels(ps...)}
}

// coreCounts is a panel of one curve per core count.
func coreCounts(name, platName string, iface ccnic.Interface, counts []int, pkt int) panel {
	p := panel{name: name}
	for _, n := range counts {
		p.curves = append(p.curves, curve{fmt.Sprintf("%d cores [us]", n), loopCfg(platName, iface, n), pkt})
	}
	return p
}

func runFig12(opt Options) *Report {
	counts := scaled(opt, []int{1, 2, 4, 8, 12, 16}, []int{1, 4, 8})
	var ps []panel
	for _, pkt := range []int{64, 1536} {
		for _, iface := range []ccnic.Interface{ccnic.CCNIC, ccnic.CX6} {
			ps = append(ps, coreCounts(fmt.Sprintf("%s, %dB (ICX)", iface, pkt), "ICX", iface, counts, pkt))
		}
	}
	return &Report{Title: "Core-count scaling on ICX", Groups: opt.panels(ps...)}
}

func runFig13(opt Options) *Report {
	counts := scaled(opt, []int{1, 4, 8, 16, 32, 56}, []int{1, 8, 24})
	var ps []panel
	for _, pkt := range []int{64, 1536} {
		ps = append(ps, coreCounts(fmt.Sprintf("CC-NIC, %dB (SPR terabit UPI)", pkt), "SPR", ccnic.CCNIC, counts, pkt))
	}
	return &Report{Title: "CC-NIC on Sapphire Rapids", Groups: opt.panels(ps...)}
}

func runFig14(opt Options) *Report {
	queues := scaled(opt, 24, 6)
	layout := func(l ring.Layout) func(*device.UPIConfig) {
		return func(u *device.UPIConfig) { u.Layout = l }
	}
	return &Report{
		Title: "Signaling and descriptor layout",
		Groups: opt.panels(
			panel{fmt.Sprintf("(a) signaling, 64B, %d cores (SPR)", queues), []curve{
				{"Inline [us]", ccnicWith(queues, nil), 64},
				{"Reg [us]", ccnicWith(queues, func(u *device.UPIConfig) { u.InlineSignal = false }), 64},
			}},
			panel{fmt.Sprintf("(b) descriptor layout, 64B, %d cores (SPR)", queues), []curve{
				{"Opt [us]", ccnicWith(queues, layout(ring.Grouped)), 64},
				{"Pack [us]", ccnicWith(queues, layout(ring.Packed)), 64},
				{"Pad [us]", ccnicWith(queues, layout(ring.Padded)), 64},
			}},
		),
	}
}

func runFig15(opt Options) *Report {
	queues := scaled(opt, 32, 6)
	// Each configuration removes its features on top of the previous
	// one's removals.
	cases := []struct {
		name   string
		remove func(*device.UPIConfig)
	}{
		{"Optimized design", func(*device.UPIConfig) {}},
		{"Buf recycling removed", func(u *device.UPIConfig) { u.Recycle, u.Sequential = false, true }},
		{"Small bufs removed", func(u *device.UPIConfig) { u.SmallBufs = false }},
		{"NIC buf management removed", func(u *device.UPIConfig) { u.NICBufMgmt, u.SharedPool = false, false }},
	}
	pts := make([]point, len(cases))
	for i := range cases {
		pts[i] = point{ccnicWith(queues, func(u *device.UPIConfig) {
			for _, c := range cases[:i+1] {
				c.remove(u)
			}
		}), loopRun(peakOpts(64, opt))}
	}
	t := &stats.Table{
		Name:    fmt.Sprintf("buffer management ablation: 64B, %d cores (SPR)", queues),
		Columns: []string{"configuration", "Mpps", "median lat [us]", "vs opt"},
	}
	var base float64
	for i, rd := range opt.read(pts...) {
		if base == 0 {
			base = rd.pps
		}
		t.AddRow(stats.Text(cases[i].name), stats.Val("%.1f", rd.mpps()),
			stats.Val("%.2f", rd.median.Microseconds()), stats.Val("%.0f%%", rd.pps/base*100))
	}
	return &Report{Title: "Buffer management features", Tables: []*stats.Table{t}}
}

func runFig16(opt Options) *Report {
	queues := scaled(opt, 16, 4)
	batches := scaled(opt, []int{1, 2, 4, 8, 16, 32}, []int{1, 8, 32})
	dirs := []string{"TX", "RX"}
	ifaces := []ccnic.Interface{ccnic.CCNIC, ccnic.E810}
	var pts []point
	for _, dir := range dirs {
		for _, iface := range ifaces {
			for _, b := range batches {
				o := peakOpts(64, opt)
				o.TxBatch, o.RxBatch = 32, 32
				if dir == "RX" {
					o.RxBatch = b
				} else {
					o.TxBatch = b
					// An unbatched sender also keeps fewer packets in
					// flight, as the paper's DPDK generator does.
					if b < 16 {
						o.Window = 4 * b
					}
				}
				pts = append(pts, point{loopCfg("ICX", iface, queues), loopRun(o)})
			}
		}
	}
	rds := opt.read(pts...)
	var groups []SeriesGroup
	for _, dir := range dirs {
		g := SeriesGroup{Name: fmt.Sprintf("(%s batching) 64B rate relative to peak, %d cores", dir, queues)}
		for _, iface := range ifaces {
			s := &stats.Series{Name: iface.String(), XLabel: dir + " batch"}
			row := rds[:len(batches)]
			rds = rds[len(batches):]
			var peak float64
			for _, rd := range row {
				peak = max(peak, rd.pps)
			}
			for i, b := range batches {
				s.Add(float64(b), row[i].pps/peak)
			}
			g.Series = append(g.Series, s)
		}
		groups = append(groups, g)
	}
	return &Report{Title: "Batching effects", Groups: groups}
}

func runFig18(opt Options) *Report {
	remote := loopCfg("SPR", ccnic.CCNIC, 1)
	same := remote
	same.SameSocket = true
	return &Report{
		Title: "Interconnect contribution to loopback latency",
		Groups: opt.panels(panel{"single-thread 64B loopback (SPR)", []curve{
			{"Remote-socket NIC [us]", remote, 64},
			{"Same-socket NIC [us]", same, 64},
		}}),
	}
}

func runFig20(opt Options) *Report {
	queues := scaled(opt, 16, 4)
	// Host and NIC prefetching per column: both on, host on, NIC on, then
	// the baseline with both off that the others are relative to.
	settings := [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}}
	cases := []struct {
		name  string
		iface ccnic.Interface
		pkt   int
	}{
		{"CC-NIC 64B", ccnic.CCNIC, 64},
		{"CC-NIC 1.5KB", ccnic.CCNIC, 1536},
		{"Unopt 64B", ccnic.UnoptUPI, 64},
		{"Unopt 1.5KB", ccnic.UnoptUPI, 1536},
	}
	var pts []point
	for _, c := range cases {
		for _, st := range settings {
			cfg := loopCfg("SPR", c.iface, queues)
			cfg.HostPrefetch, cfg.NICPrefetch = st[0], st[1]
			pts = append(pts, point{cfg, loopRun(peakOpts(c.pkt, opt))})
		}
	}
	t := &stats.Table{
		Name:    fmt.Sprintf("packet rate relative to prefetching disabled (SPR, %d cores)", queues),
		Columns: []string{"design/size", "Both on", "Host on", "NIC on"},
	}
	rds := opt.read(pts...)
	for i, c := range cases {
		row := rds[i*len(settings) : (i+1)*len(settings)]
		base := row[3].pps
		t.AddRow(stats.Text(c.name), stats.Val("%.2f", row[0].pps/base),
			stats.Val("%.2f", row[1].pps/base), stats.Val("%.2f", row[2].pps/base))
	}
	return &Report{Title: "Hardware prefetching impact", Tables: []*stats.Table{t}}
}
