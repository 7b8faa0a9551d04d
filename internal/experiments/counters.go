package experiments

import (
	"fmt"

	"ccnic"
	"ccnic/internal/sim"
	"ccnic/internal/stats"
)

func init() {
	register(&Experiment{
		ID:    "fig17",
		Title: "NIC-socket remote accesses (READ/RFO) per TX-RX loopback, batched and singleton",
		Paper: "CC-NIC batched: 1.3 READ + 0.3 RFO per packet; unopt batched: 2.9/0.8; singleton cases: 2.9/2.8 and 5.4/4.9",
		run:   runFig17,
	})
}

// countRun runs a single-queue loopback and returns NIC-socket remote READ
// and RFO counts per received packet.
func countRun(opt Options, iface ccnic.Interface, batched bool) (rd, rfo float64) {
	tb := opt.testbed(ccnic.Config{
		Platform:  "ICX",
		Interface: iface,
		Queues:    1,
		// Prefetching off: the paper's counter study isolates demand
		// protocol traffic.
	})
	lo := ccnic.LoopbackOptions{
		PktSize: 64,
		Warmup:  40 * sim.Microsecond,
		Measure: 120 * sim.Microsecond,
	}
	if batched {
		lo.Window = 64
		lo.TxBatch = 8
		lo.RxBatch = 8
	} else {
		// Singleton: one packet in flight, transmitted and immediately
		// polled for completion.
		lo.Window = 1
		lo.TxBatch = 1
		lo.RxBatch = 1
	}
	// Counters accumulate over the whole run (warmup included); the
	// warmup traffic is the same steady workload, so normalize by the
	// packet count over the full span.
	res := tb.RunLoopback(lo)
	c := tb.Sys.Counters(1)
	pkts := res.PPS * (lo.Warmup + lo.Measure).Seconds()
	if pkts <= 0 {
		return 0, 0
	}
	return float64(c.RemoteRead) / pkts, float64(c.RemoteRFO) / pkts
}

func runFig17(opt Options) *Report {
	t := &stats.Table{
		Name:    "NIC-socket remote accesses per TX-RX loopback (64B)",
		Columns: []string{"case", "READ", "RFO"},
	}
	type c struct {
		name    string
		iface   ccnic.Interface
		batched bool
	}
	for _, cs := range []c{
		{"CC-NIC Batch", ccnic.CCNIC, true},
		{"Unopt Batch", ccnic.UnoptUPI, true},
		{"CC-NIC Single", ccnic.CCNIC, false},
		{"Unopt Single", ccnic.UnoptUPI, false},
	} {
		rd, rfo := countRun(opt, cs.iface, cs.batched)
		t.AddRow(cs.name, fmt.Sprintf("%.2f", rd), fmt.Sprintf("%.2f", rfo))
	}
	return &Report{
		ID:     "fig17",
		Title:  "Interconnect communication per packet",
		Tables: []*stats.Table{t},
		Notes: []string{
			"paper: CC-NIC Batch 1.3/0.3, Unopt Batch 2.9/0.8, CC-NIC Single 2.9/2.8, Unopt Single 5.4/4.9",
		},
	}
}
