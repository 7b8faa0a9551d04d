package experiments

import (
	"fmt"

	"ccnic"
	"ccnic/internal/sim"
	"ccnic/internal/stats"
)

func init() {
	register(
		&Experiment{ID: "fig19", run: runFig19,
			Title: "Key-value store throughput vs thread count (Ads and Geo distributions)",
			Paper: "CC-NIC Overlay saturates with half the application threads of the direct CX6 interface (16->8 Ads, 8->4 Geo)"},
		&Experiment{ID: "table2", run: runTable2,
			Title: "Application peak throughput and thread counts: KV store and TCP echo RPC",
			Paper: "KV ads 37.0->42.3 Mops (16->8 threads); KV geo 17.8->17.9 (8->4); TCP RPC 58.3->64.6 (5->3 fast-path threads)"},
	)
}

// appIface is one Fig 19 / Table 2 interface variant.
type appIface struct {
	name  string
	iface ccnic.Interface
	// ample gives an overlay two forwarding threads per application
	// thread, bounded by the NIC socket's 16 cores and not counted against
	// application threads; otherwise it gets one per application thread.
	ample bool
}

var (
	appPCIe  = appIface{"PCIe", ccnic.CX6, false}
	appCCNIC = appIface{"CC-NIC", ccnic.OverlayCCNIC, true}
	appUPI11 = appIface{"UPI 1-1", ccnic.OverlayCCNIC, false}
	appUnopt = appIface{"UPI unopt", ccnic.OverlayUnopt, true}
)

// config is the testbed of one application point with n host threads.
func (a appIface) config(n int) ccnic.Config {
	cfg := ccnic.Config{Platform: "ICX", Interface: a.iface, Queues: n, HostPrefetch: true}
	if a.ample {
		cfg.OverlayThreads = min(2*n, 16)
	}
	return cfg
}

// appRun is an application run offered rate requests per queue, beyond
// saturation, with 40us of warm-up and 120us measured (25/60us at -quick);
// a KV run's value sizes follow dist ("ads" or "geo").
func appRun(opt Options, kind string, rate float64, dist string) run {
	return run{kind: kind, dist: dist, lo: ccnic.LoopbackOptions{Rate: rate,
		Warmup:  scaled(opt, 40*sim.Microsecond, 25*sim.Microsecond),
		Measure: scaled(opt, 120*sim.Microsecond, 60*sim.Microsecond)}}
}

func runFig19(opt Options) *Report {
	threadCounts := scaled(opt, []int{1, 2, 4, 8, 12, 16}, []int{1, 4})
	ifaces := scaled(opt, []appIface{appCCNIC, appUPI11, appUnopt, appPCIe}, []appIface{appCCNIC, appPCIe})
	dists := []string{"ads", "geo"}
	var pts []point
	for _, d := range dists {
		for _, iface := range ifaces {
			for _, n := range threadCounts {
				pts = append(pts, point{iface.config(n), appRun(opt, kvRun, 10e6, d)})
			}
		}
	}
	rds := opt.read(pts...)
	var groups []SeriesGroup
	for _, d := range dists {
		var series []*stats.Series
		for _, iface := range ifaces {
			s := &stats.Series{Name: iface.name + " [Mops]", XLabel: "threads"}
			for _, n := range threadCounts {
				s.Add(float64(n), rds[0].ops/1e6)
				rds = rds[1:]
			}
			series = append(series, s)
		}
		groups = append(groups, SeriesGroup{
			Name:   fmt.Sprintf("(%s distribution) KV throughput vs thread count", d),
			Series: series,
		})
	}
	return &Report{Title: "Key-value store scaling", Groups: groups}
}

// threadsFor95 returns the peak of a thread-count sweep's ops/s and the
// fewest threads reaching 95% of it.
func threadsFor95(counts []int, rds []reading) (peak float64, need int) {
	for _, rd := range rds {
		peak = max(peak, rd.ops)
	}
	for i, n := range counts {
		if rds[i].ops >= 0.95*peak {
			return peak, n
		}
	}
	return peak, counts[len(counts)-1]
}

func runTable2(opt Options) *Report {
	kvCounts := scaled(opt, []int{2, 4, 8, 12, 16}, []int{2, 4})
	rpcCounts := scaled(opt, []int{1, 2, 3, 4, 5, 6}, []int{1, 2})
	t := &stats.Table{
		Name:    "peak throughput and threads to reach 95% of peak (CX6 vs CC-NIC Overlay)",
		Columns: []string{"workload", "PCIe Mops", "CC-NIC Mops", "threads PCIe->CC-NIC"},
	}
	// Each row sweeps PCIe and then CC-NIC over its thread counts.
	rows := []struct {
		name   string
		counts []int
		run    run
	}{
		{"KV store (ads)", kvCounts, appRun(opt, kvRun, 10e6, "ads")},
		{"KV store (geo)", kvCounts, appRun(opt, kvRun, 10e6, "geo")},
		{"TCP echo RPC", rpcCounts, appRun(opt, rpcRun, 60e6, "")},
	}
	var pts []point
	for _, r := range rows {
		for _, iface := range []appIface{appPCIe, appCCNIC} {
			for _, n := range r.counts {
				pts = append(pts, point{iface.config(n), r.run})
			}
		}
	}
	rds := opt.read(pts...)
	for _, r := range rows {
		n := len(r.counts)
		pPeak, pN := threadsFor95(r.counts, rds[:n])
		cPeak, cN := threadsFor95(r.counts, rds[n:2*n])
		rds = rds[2*n:]
		t.AddRow(stats.Text(r.name), stats.Val("%.1f", pPeak/1e6), stats.Val("%.1f", cPeak/1e6),
			stats.Val("%d -> %d", pN, cN))
	}
	return &Report{Title: "Application-level core savings", Tables: []*stats.Table{t}}
}
