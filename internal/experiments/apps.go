package experiments

import (
	"fmt"

	"ccnic"
	"ccnic/internal/kvstore"
	"ccnic/internal/rpcstack"
	"ccnic/internal/sim"
	"ccnic/internal/stats"
	"ccnic/internal/traffic"
)

func init() {
	register(&Experiment{
		ID:    "fig19",
		Title: "Key-value store throughput vs thread count (Ads and Geo distributions)",
		Paper: "CC-NIC Overlay saturates with half the application threads of the direct CX6 interface (16->8 Ads, 8->4 Geo)",
		Run:   runFig19,
	})
	register(&Experiment{
		ID:    "table2",
		Title: "Application peak throughput and thread counts: KV store and TCP echo RPC",
		Paper: "KV ads 37.0->42.3 Mops (16->8 threads); KV geo 17.8->17.9 (8->4); TCP RPC 58.3->64.6 (5->3 fast-path threads)",
		Run:   runTable2,
	})
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

// appTestbed builds the testbed for one application point with n host
// threads.
func appTestbed(a appIface, n int) *ccnic.Testbed {
	cfg := ccnic.Config{Platform: "ICX", Interface: a.iface, Queues: n, HostPrefetch: true}
	if a.ample {
		cfg.OverlayThreads = min(2*n, 16)
	}
	return ccnic.NewTestbed(cfg)
}

// appWindows returns the warmup and measurement windows of an application
// point.
func appWindows(opt Options) (warm, meas sim.Time) {
	if opt.Quick {
		return 25 * sim.Microsecond, 60 * sim.Microsecond
	}
	return 40 * sim.Microsecond, 120 * sim.Microsecond
}

// kvPoint measures saturated KV throughput for a series point.
func kvPoint(iface appIface, threads int, dist *traffic.SizeDist, opt Options) float64 {
	tb := appTestbed(iface, threads)
	warm, meas := appWindows(opt)
	res := kvstore.Run(kvstore.Config{
		Sys:          tb.Sys,
		Dev:          tb.Dev,
		Hosts:        tb.Hosts,
		Store:        kvstore.NewStore(tb.Sys, 0, 100_000, dist),
		Seed:         7,
		RatePerQueue: 10e6, // beyond saturation
		Warmup:       warm,
		Measure:      meas,
	})
	return res.OpsPerSec
}

func runFig19(opt Options) *Report {
	threadCounts := []int{1, 2, 4, 8, 12, 16}
	ifaces := []appIface{appCCNIC, appUPI11, appUnopt, appPCIe}
	if opt.Quick {
		threadCounts = []int{1, 4}
		ifaces = []appIface{appCCNIC, appPCIe}
	}
	var groups []SeriesGroup
	for _, d := range []*traffic.SizeDist{traffic.Ads(3), traffic.Geo(3)} {
		var series []*stats.Series
		for _, iface := range ifaces {
			iface := iface
			s := &stats.Series{Name: iface.name + " [Mops]", XLabel: "threads"}
			ys := make([]float64, len(threadCounts))
			parallel(len(threadCounts), func(i int) {
				ys[i] = kvPoint(iface, threadCounts[i], d, opt) / 1e6
			})
			for i, n := range threadCounts {
				s.Add(float64(n), ys[i])
			}
			series = append(series, s)
		}
		groups = append(groups, SeriesGroup{
			Name:   fmt.Sprintf("(%s distribution) KV throughput vs thread count", d.Name()),
			Series: series,
		})
	}
	return &Report{ID: "fig19", Title: "Key-value store scaling", Groups: groups}
}

// rpcPoint measures saturated echo-RPC throughput with fp fast-path threads.
func rpcPoint(iface appIface, fp int, opt Options) float64 {
	tb := appTestbed(iface, fp)
	warm, meas := appWindows(opt)
	res := rpcstack.Run(rpcstack.Config{
		Sys:          tb.Sys,
		Dev:          tb.Dev,
		FastPath:     tb.Hosts,
		App:          tb.Sys.NewAgent(0, "app"),
		RatePerQueue: 60e6, // beyond saturation
		Warmup:       warm,
		Measure:      meas,
	})
	return res.OpsPerSec
}

// threadsFor95 sweeps thread counts and returns (peak ops/s, threads needed
// to reach 95% of it).
func threadsFor95(counts []int, measure func(int) float64) (peak float64, need int) {
	vals := make(map[int]float64, len(counts))
	ys := make([]float64, len(counts))
	parallel(len(counts), func(i int) { ys[i] = measure(counts[i]) })
	for i, n := range counts {
		vals[n] = ys[i]
		if vals[n] > peak {
			peak = vals[n]
		}
	}
	for _, n := range counts {
		if vals[n] >= 0.95*peak {
			return peak, n
		}
	}
	return peak, counts[len(counts)-1]
}

func runTable2(opt Options) *Report {
	kvCounts := []int{2, 4, 8, 12, 16}
	rpcCounts := []int{1, 2, 3, 4, 5, 6}
	if opt.Quick {
		kvCounts = []int{2, 4}
		rpcCounts = []int{1, 2}
	}
	t := &stats.Table{
		Name:    "peak throughput and threads to reach 95% of peak (CX6 vs CC-NIC Overlay)",
		Columns: []string{"workload", "PCIe Mops", "CC-NIC Mops", "threads PCIe->CC-NIC"},
	}
	for _, w := range []struct {
		name string
		dist *traffic.SizeDist
	}{{"KV store (ads)", traffic.Ads(3)}, {"KV store (geo)", traffic.Geo(3)}} {
		w := w
		pPeak, pN := threadsFor95(kvCounts, func(n int) float64 { return kvPoint(appPCIe, n, w.dist, opt) })
		cPeak, cN := threadsFor95(kvCounts, func(n int) float64 { return kvPoint(appCCNIC, n, w.dist, opt) })
		t.AddRow(w.name,
			fmt.Sprintf("%.1f", pPeak/1e6), fmt.Sprintf("%.1f", cPeak/1e6),
			fmt.Sprintf("%d -> %d", pN, cN))
	}
	pPeak, pN := threadsFor95(rpcCounts, func(n int) float64 { return rpcPoint(appPCIe, n, opt) })
	cPeak, cN := threadsFor95(rpcCounts, func(n int) float64 { return rpcPoint(appCCNIC, n, opt) })
	t.AddRow("TCP echo RPC",
		fmt.Sprintf("%.1f", pPeak/1e6), fmt.Sprintf("%.1f", cPeak/1e6),
		fmt.Sprintf("%d -> %d", pN, cN))
	return &Report{ID: "table2", Title: "Application-level core savings", Tables: []*stats.Table{t}}
}
