package experiments

import (
	"ccnic"
	"ccnic/internal/sim"
	"ccnic/internal/stats"
)

func init() {
	register(
		&Experiment{ID: "fig17", run: runFig17,
			Title: "NIC-socket remote accesses (READ/RFO) per TX-RX loopback, batched and singleton",
			Paper: "CC-NIC batched: 1.3 READ + 0.3 RFO per packet; unopt batched: 2.9/0.8; singleton cases: 2.9/2.8 and 5.4/4.9"},
	)
}

func runFig17(opt Options) *Report {
	t := &stats.Table{
		Name:    "NIC-socket remote accesses per TX-RX loopback (64B)",
		Columns: []string{"case", "READ", "RFO"},
	}
	// Batched runs keep a 64-packet window in bursts of 8; singleton runs
	// keep one packet in flight, transmitted and immediately polled for
	// completion.
	cases := []struct {
		name          string
		iface         ccnic.Interface
		window, burst int
	}{
		{"CC-NIC Batch", ccnic.CCNIC, 64, 8},
		{"Unopt Batch", ccnic.UnoptUPI, 64, 8},
		{"CC-NIC Single", ccnic.CCNIC, 1, 1},
		{"Unopt Single", ccnic.UnoptUPI, 1, 1},
	}
	pts := make([]point, len(cases))
	for i, c := range cases {
		// A single queue with prefetching off: the paper's counter study
		// isolates demand protocol traffic.
		pts[i] = point{ccnic.Config{Platform: "ICX", Interface: c.iface, Queues: 1},
			loopRun(ccnic.LoopbackOptions{PktSize: 64, Window: c.window, TxBatch: c.burst, RxBatch: c.burst,
				Warmup: 40 * sim.Microsecond, Measure: 120 * sim.Microsecond})}
	}
	for i, rd := range opt.read(pts...) {
		// The counters cover the whole run, which ends with its window:
		// the warm-up is the same steady workload, so normalize by the
		// packet count over the full span.
		var rdPer, rfoPer float64
		if pkts := rd.pps * pts[i].run.span().Seconds(); pkts > 0 {
			rdPer, rfoPer = float64(rd.remoteRead)/pkts, float64(rd.remoteRFO)/pkts
		}
		t.AddRow(stats.Text(cases[i].name), stats.Val("%.2f", rdPer), stats.Val("%.2f", rfoPer))
	}
	return &Report{
		Title:  "Interconnect communication per packet",
		Tables: []*stats.Table{t},
		Notes: []string{
			"paper: CC-NIC Batch 1.3/0.3, Unopt Batch 2.9/0.8, CC-NIC Single 2.9/2.8, Unopt Single 5.4/4.9",
		},
	}
}
