package experiments

import (
	"fmt"

	"ccnic/internal/coherence"
	"ccnic/internal/pcie"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
	"ccnic/internal/stats"
)

// runProc executes fn as a single simulated process on a fresh kernel.
func runProc(fn func(p *sim.Proc)) {
	k := sim.New()
	k.Spawn("exp", fn)
	if err := k.Run(); err != nil {
		panic(err)
	}
}

func init() {
	register(&Experiment{
		ID:    "fig2",
		Title: "Single-threaded write throughput vs bytes per barrier (WC MMIO, WC DRAM, WB DRAM)",
		Paper: "WC paths need >=4KB per barrier to approach peak; WB DRAM is flat regardless of barrier frequency",
		run:   runFig2,
	})
	register(&Experiment{
		ID:    "fig3",
		Title: "Cumulative MMIO store latency vs store count (WC buffer exhaustion)",
		Paper: "flat and cheap until all 24 WC buffers are open at N=24, then >=15x per-store cost",
		run:   runFig3,
	})
	register(&Experiment{
		ID:    "fig7",
		Title: "Local and cross-UPI access latency by cache state",
		Paper: "ICX: 72/144/48/114/119ns, SPR: 108/191/82/171/174ns for L DRAM/R DRAM/L L2/R L2 rh/R L2 lh",
		run:   runFig7,
	})
	register(&Experiment{
		ID:    "fig8",
		Title: "UPI pingpong latency by memory layout (S0,S1,Rd,Wr,S0C,S1C)",
		Paper: "separate-line layouts are 1.7-2.4x slower than co-locating both registers in one line",
		run:   runFig8,
	})
	register(&Experiment{
		ID:    "fig9",
		Title: "Cross-UPI streaming throughput vs core count, caching vs nontemporal stores",
		Paper: "caching (cache-to-cache) stores reach 1.8x (ICX) / 1.6x (SPR) higher saturation than nontemporal",
		run:   runFig9,
	})
	register(&Experiment{
		ID:    "table1",
		Title: "Interconnect bandwidth comparison (PCIe, CXL, UPI)",
		Paper: "UPI provides higher bandwidth than contemporary PCIe: 67.2 GB/s (ICX), 192 GB/s (SPR)",
		run:   runTable1,
	})
}

func runFig2(Options) *Report {
	plat := platform.ICX()
	sizes := []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}
	mmio := &stats.Series{Name: "WC MMIO [Gbps]", XLabel: "bytes/barrier"}
	wcDRAM := &stats.Series{Name: "WC DRAM [Gbps]", XLabel: "bytes/barrier"}
	wbDRAM := &stats.Series{Name: "WB DRAM [Gbps]", XLabel: "bytes/barrier"}

	runProc(func(p *sim.Proc) {
		ep := pcie.NewEndpoint(plat.PCIe)
		core := ep.NewCore()
		for _, size := range sizes {
			// WC MMIO: stream fill then sfence, repeated.
			start := p.Now()
			const reps = 20
			for i := 0; i < reps; i++ {
				core.WCStreamWrite(p, size, 11.5)
			}
			gbps := float64(size*reps) * 8 / (p.Now() - start).Nanoseconds()
			mmio.Add(float64(size), gbps)

			// WC DRAM: nontemporal fill at NT store bandwidth plus a
			// cheaper barrier drain.
			cost := sim.Time(float64(size)/plat.PCIe.NTStoreBW*float64(sim.Nanosecond)) +
				plat.PCIe.WCFlushDRAM
			wcDRAM.Add(float64(size), float64(size)*8/cost.Nanoseconds())

			// WB DRAM: regular cacheable stores; sfence is nearly free.
			cost = sim.Time(float64(size)/plat.PCIe.WBStoreBW*float64(sim.Nanosecond)) +
				2*sim.Nanosecond
			wbDRAM.Add(float64(size), float64(size)*8/cost.Nanoseconds())
		}
	})
	return &Report{
		ID:    "fig2",
		Title: "Write throughput vs bytes per barrier",
		Groups: []SeriesGroup{{
			Name:   "single-thread write throughput (ICX)",
			Series: []*stats.Series{mmio, wcDRAM, wbDRAM},
		}},
	}
}

func runFig3(Options) *Report {
	plat := platform.ICX()
	var groups []SeriesGroup
	series := make([]*stats.Series, 0, 2)
	for _, nic := range []struct {
		name       string
		flushScale float64
	}{{"E810", 1.0}, {"CX6", 1.25}} {
		s := &stats.Series{Name: nic.name + " [us]", XLabel: "store count"}
		pp := plat.PCIe
		pp.WCFlushMMIO = sim.Time(float64(pp.WCFlushMMIO) * nic.flushScale)
		runProc(func(p *sim.Proc) {
			ep := pcie.NewEndpoint(pp)
			for _, n := range []int{1, 2, 4, 8, 16, 24, 32, 40, 48, 56, 64} {
				core := ep.NewCore()
				start := p.Now()
				for i := 0; i < n; i++ {
					core.WCStore32(p, uint64(i), plat.WCBuffers)
				}
				s.Add(float64(n), (p.Now() - start).Microseconds())
				p.Sleep(10 * sim.Microsecond) // drain between trials
			}
		})
		series = append(series, s)
	}
	groups = append(groups, SeriesGroup{Name: "cumulative MMIO store latency (ICX, PCIe 4.0 x16)", Series: series})
	return &Report{ID: "fig3", Title: "MMIO store latency vs iteration count", Groups: groups}
}

// idleTargets names Fig 7's five access targets, in IdleLatencies' order.
var idleTargets = [5]string{"L DRAM", "R DRAM", "L L2", "R L2 (rh)", "R L2 (lh)"}

// IdleLatencies measures Fig 7's idle 64B read latency from a socket-0 core
// on a fresh system s over kernel k, for five targets in order: local DRAM,
// remote DRAM, a line dirty in a local peer's L2, and a line dirty in a
// remote L2 homed on the remote (writer's) or the local (reader's) socket.
// Each is the median over 32 fresh lines put into that state first. It runs
// k to completion.
func IdleLatencies(k *sim.Kernel, s *coherence.System) [5]sim.Time {
	var lat [5]sim.Time
	k.Spawn("idle", func(p *sim.Proc) {
		host := s.NewAgent(0, "host")
		peer := s.NewAgent(0, "peer")
		nic := s.NewAgent(1, "nic")
		cells := [5]struct {
			home   int
			writer *coherence.Agent
		}{{0, nil}, {1, nil}, {0, peer}, {1, nic}, {0, nic}}
		for i, c := range cells {
			var h stats.Histogram
			for n := 0; n < 32; n++ {
				addr := s.Space().AllocLines(c.home, 1)
				if c.writer != nil {
					c.writer.Write(p, addr, 64)
				}
				h.Record(host.Read(p, addr, 64))
			}
			lat[i] = h.Median()
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	return lat
}

func runFig7(opt Options) *Report {
	t := &stats.Table{
		Name:    "median 64B access latency [ns]",
		Columns: []string{"target", "SPR", "ICX"},
	}
	var lat [2][5]sim.Time
	for i, plat := range []*platform.Platform{platform.SPR(), platform.ICX()} {
		k := sim.New()
		lat[i] = IdleLatencies(k, opt.system(k, plat))
	}
	for i, name := range idleTargets {
		t.AddRow(name, fmt.Sprintf("%.0f", lat[0][i].Nanoseconds()), fmt.Sprintf("%.0f", lat[1][i].Nanoseconds()))
	}
	return &Report{ID: "fig7", Title: "Access latency by cache state", Tables: []*stats.Table{t}}
}

// pingpong measures the paper's Fig 8 roundtrip for a given line layout.
// homes[0] is the A->B line's home socket, homes[1] the B->A line's;
// colocated uses a single line homed on homes[0].
func pingpong(opt Options, plat *platform.Platform, colocated bool, homeAB, homeBA int) sim.Time {
	k := sim.New()
	s := opt.system(k, plat)
	a := s.NewAgent(0, "a")
	b := s.NewAgent(1, "b")
	lineAB := s.Space().AllocLines(homeAB, 1)
	lineBA := lineAB
	if !colocated {
		lineBA = s.Space().AllocLines(homeBA, 1)
	}

	// Go-side register values with store-visibility gating.
	type reg struct {
		val int
		vis sim.Time
	}
	var ab, ba reg
	const rounds = 200
	var total sim.Time
	done := 0

	k.Spawn("writer", func(p *sim.Proc) {
		for i := 1; i <= rounds; i++ {
			start := p.Now()
			vis := a.WriteAsync(p, lineAB, 8)
			ab.vis = vis
			ab.val = i
			// Poll for the echo.
			for {
				a.Poll(p, lineBA, 8)
				if ba.val == i && p.Now() >= ba.vis {
					break
				}
				p.Sleep(plat.PollGap)
			}
			total += p.Now() - start
			done++
		}
	})
	k.Spawn("echoer", func(p *sim.Proc) {
		for i := 1; i <= rounds; i++ {
			for {
				b.Poll(p, lineAB, 8)
				if ab.val == i && p.Now() >= ab.vis {
					break
				}
				p.Sleep(plat.PollGap)
			}
			vis := b.WriteAsync(p, lineBA, 8)
			ba.vis = vis
			ba.val = i
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	return total / rounds
}

func runFig8(opt Options) *Report {
	t := &stats.Table{
		Name:    "pingpong roundtrip latency [ns]",
		Columns: []string{"layout", "SPR", "ICX"},
	}
	cases := []struct {
		name      string
		colocated bool
		homeAB    int
		homeBA    int
	}{
		{"S0", false, 0, 0},
		{"S1", false, 1, 1},
		{"Rd", false, 1, 0}, // each line homed on its reader's socket
		{"Wr", false, 0, 1}, // each line homed on its writer's socket
		{"S0C", true, 0, 0},
		{"S1C", true, 1, 1},
	}
	vals := map[string][2]float64{}
	for pi, plat := range []*platform.Platform{platform.SPR(), platform.ICX()} {
		for _, c := range cases {
			rt := pingpong(opt, plat, c.colocated, c.homeAB, c.homeBA)
			v := vals[c.name]
			v[pi] = rt.Nanoseconds()
			vals[c.name] = v
		}
	}
	for _, c := range cases {
		v := vals[c.name]
		t.AddRow(c.name, fmt.Sprintf("%.0f", v[0]), fmt.Sprintf("%.0f", v[1]))
	}
	sep := vals["Wr"]
	co := vals["S0C"]
	return &Report{
		ID:     "fig8",
		Title:  "Pingpong latency by memory layout",
		Tables: []*stats.Table{t},
		Notes: []string{fmt.Sprintf("separate/co-located ratio: SPR %.2fx, ICX %.2fx (paper: 1.7-2.4x)",
			sep[0]/co[0], sep[1]/co[1])},
	}
}

// streamPair runs writer/reader pairs streaming chunks across the UPI and
// returns aggregate reader throughput in Gbps.
func streamPair(opt Options, plat *platform.Platform, cores int, nontemporal bool) float64 {
	k := sim.New()
	s := opt.system(k, plat)
	const chunk = 64 << 10 // 64KB chunks (scaled-down 1MB; same regime)
	const chunksPerPair = 12
	var totalBytes int64
	var elapsed sim.Time

	for c := 0; c < cores; c++ {
		writer := s.NewAgent(0, "w")
		reader := s.NewAgent(1, "r")
		// Caching: region homed on the writer socket; NT: stores target
		// reader-socket DRAM, as the paper describes.
		home := 0
		if nontemporal {
			home = 1
		}
		region := s.Space().Alloc(home, chunk, 0)
		type sig struct {
			seq int
			vis sim.Time
		}
		ready := &sig{}
		ack := &sig{}
		readyLine := s.Space().AllocLines(0, 1)
		ackLine := s.Space().AllocLines(1, 1)

		k.Spawn("writer", func(p *sim.Proc) {
			for i := 1; i <= chunksPerPair; i++ {
				if nontemporal {
					writer.WriteNT(p, region, chunk)
				} else {
					writer.StreamWrite(p, region, chunk)
				}
				vis := writer.WriteAsync(p, readyLine, 8)
				ready.vis = vis
				ready.seq = i
				for ack.seq < i || p.Now() < ack.vis {
					writer.Poll(p, ackLine, 8)
					p.Sleep(plat.PollGap)
				}
			}
		})
		k.Spawn("reader", func(p *sim.Proc) {
			for i := 1; i <= chunksPerPair; i++ {
				for ready.seq < i || p.Now() < ready.vis {
					reader.Poll(p, readyLine, 8)
					p.Sleep(plat.PollGap)
				}
				reader.StreamRead(p, region, chunk)
				totalBytes += chunk
				vis := reader.WriteAsync(p, ackLine, 8)
				ack.vis = vis
				ack.seq = i
			}
		})
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	elapsed = k.Now()
	return float64(totalBytes) * 8 / elapsed.Nanoseconds()
}

func runFig9(opt Options) *Report {
	var groups []SeriesGroup
	for _, plat := range []*platform.Platform{platform.SPR(), platform.ICX()} {
		counts := []int{1, 2, 4, 8, 16}
		if plat.Name == "SPR" {
			counts = []int{1, 2, 4, 8, 16, 24, 32, 40, 48, 56}
		}
		if opt.Quick {
			counts = counts[:min(len(counts), 4)]
		}
		caching := &stats.Series{Name: plat.Name + " caching [Gbps]", XLabel: "cores"}
		nontmp := &stats.Series{Name: plat.Name + " nontmp [Gbps]", XLabel: "cores"}
		cy := make([]float64, len(counts))
		ny := make([]float64, len(counts))
		parallel(len(counts), func(i int) {
			cy[i] = streamPair(opt, plat, counts[i], false)
			ny[i] = streamPair(opt, plat, counts[i], true)
		})
		for i, n := range counts {
			caching.Add(float64(n), cy[i])
			nontmp.Add(float64(n), ny[i])
		}
		groups = append(groups, SeriesGroup{
			Name:   plat.Name + " stream transfer throughput",
			Series: []*stats.Series{caching, nontmp},
		})
	}
	return &Report{ID: "fig9", Title: "Streaming throughput: caching vs nontemporal", Groups: groups}
}

func runTable1(Options) *Report {
	t := &stats.Table{
		Name:    "interconnect bandwidth comparison",
		Columns: []string{"protocol", "GT/s", "1 link GB/s", "max total GB/s"},
	}
	t.AddRow("PCIe 4.0", "16", "2.0", "31.5 (x16)")
	t.AddRow("PCIe 5.0, CXL 1.0-2.0", "32", "3.9", "63.0 (x16)")
	t.AddRow("PCIe 6.0, CXL 3.0", "64", "7.6", "121 (x16)")
	for _, plat := range []*platform.Platform{platform.ICX(), platform.SPR()} {
		perLink := plat.UPIRawGBs / float64(plat.UPILinks)
		t.AddRow(plat.Name+" UPI",
			fmt.Sprintf("%.1f", plat.UPIGTs),
			fmt.Sprintf("%.1f", perLink),
			fmt.Sprintf("%.1f (x%d)", plat.UPIRawGBs, plat.UPILinks))
	}
	return &Report{ID: "table1", Title: "PCIe, CXL, and UPI bandwidth", Tables: []*stats.Table{t}}
}
