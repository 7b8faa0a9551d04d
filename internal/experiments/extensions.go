package experiments

import (
	"ccnic"
	"ccnic/internal/device"
	"ccnic/internal/dsa"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
	"ccnic/internal/stats"
)

// Extension experiments cover the paper's §6 discussion and §3.2's proposed
// event-driven ASIC behavior — directions the paper sketches but does not
// evaluate. They are regenerated alongside the figures by ccbench.

func init() {
	register(
		&Experiment{ID: "ext-dsa", run: runExtDSA,
			Title: "EXT (§6 Hardware DMA): CPU payload copies vs DSA-offloaded bulk transfers",
			Paper: "§6 suggests on-chip DMA engines (Intel DSA) for CPU-initiated bulk transfers of large packets"},
		&Experiment{ID: "ext-event", run: runExtEvent,
			Title: "EXT (§3.2 Event-driven NIC): polled vs coherence-event NIC cores at high queue counts",
			Paper: "§3.2 proposes handling coherence messages as signals to avoid software-polling scalability limits"},
		&Experiment{ID: "ext-netfn", run: runExtNetfn,
			Title: "EXT (§6 Network functions): header-only forwarding interconnect traffic",
			Paper: "§6 argues a coherent NIC can retain payloads in NIC cache while the host reads only headers"},
	)
}

// runExtDSA measures single-core large-payload TX preparation throughput
// with CPU copies versus DSA offload.
func runExtDSA(opt Options) *Report {
	const size = 4096
	pkts := scaled(opt, 400, 120)

	measure := func(useDSA bool) (opsPerSec float64) {
		k := sim.New()
		sys := opt.system(k, platform.SPR())
		core := sys.NewAgent(0, "core")
		var eng *dsa.Engine
		if useDSA {
			eng = dsa.NewLanes(sys, 0, "dsa0", 4)
		}
		// Source object; per-packet destination TX buffers.
		src := sys.Space().Alloc(0, size, 0)
		k.Spawn("app", func(p *sim.Proc) {
			var pending []*dsa.Completion
			for i := 0; i < pkts; i++ {
				dst := sys.Space().Alloc(0, size, 0)
				// Per-packet protocol work the core must do anyway.
				core.Exec(p, 60*sim.Nanosecond)
				if useDSA {
					pending = append(pending, eng.Submit(p, core, src, dst, size))
					if len(pending) >= 8 {
						pending[0].Wait(p, core)
						pending = pending[1:]
					}
				} else {
					core.StreamRead(p, src, size)
					core.StreamWrite(p, dst, size)
				}
			}
			for _, c := range pending {
				c.Wait(p, core)
			}
			if eng != nil {
				eng.Stop()
			}
		})
		if err := k.Run(); err != nil {
			panic(err)
		}
		return float64(pkts) / k.Now().Seconds()
	}

	rates := each(opt, []string{"cpu", "dsa"}, func(path string) float64 { return measure(path == "dsa") })
	cpu, off := rates[0], rates[1]
	t := &stats.Table{
		Name:    "single-core 4KB TX preparation (SPR)",
		Columns: []string{"transfer path", "Kops/s", "speedup"},
	}
	t.AddRow(stats.Text("CPU copy"), stats.Val("%.0f", cpu/1e3), stats.Text("1.00x"))
	t.AddRow(stats.Text("DSA offload"), stats.Val("%.0f", off/1e3), stats.Val("%.2fx", off/cpu))
	return &Report{Title: "Hardware bulk transfers", Tables: []*stats.Table{t}}
}

// runExtEvent compares descriptor-discovery behavior when one NIC core
// serves many queues, polled versus event-driven.
func runExtEvent(opt Options) *Report {
	counts := scaled(opt, []int{2, 8, 16}, []int{2, 8})
	t := &stats.Table{
		Name:    "one NIC core serving N trickle queues (ICX, 64B): ring scans per delivered packet",
		Columns: []string{"queues", "polled scans/pkt", "event scans/pkt", "polled lat [ns]", "event lat [ns]"},
	}
	var pts []point
	for _, n := range counts {
		for _, ev := range []bool{false, true} {
			cfg := device.CCNICConfig()
			cfg.NICCores = 1 // one core, one cache
			cfg.EventDriven = ev
			pts = append(pts, point{ccnic.Config{Platform: "ICX", Queues: n, UPI: &cfg, HostPrefetch: true},
				loopRun(ccnic.LoopbackOptions{PktSize: 64, Rate: 40_000,
					Warmup: 20 * sim.Microsecond, Measure: 100 * sim.Microsecond})})
		}
	}
	rds := opt.read(pts...)
	for i, n := range counts {
		var scans, lats [2]float64
		for j, rd := range rds[2*i : 2*i+2] {
			// NICSteps counts the whole run, which ends with its window,
			// so divide by the packets of warm-up and window.
			pkts := rd.pps * pts[2*i+j].run.span().Seconds()
			scans[j] = float64(rd.nicSteps) / pkts
			lats[j] = rd.median.Nanoseconds()
		}
		t.AddRow(stats.Val("%d", n), stats.Val("%.0f", scans[0]), stats.Val("%.1f", scans[1]),
			stats.Val("%.0f", lats[0]), stats.Val("%.0f", lats[1]))
	}
	return &Report{
		Title:  "Event-driven NIC signaling",
		Tables: []*stats.Table{t},
		Notes: []string{
			"a polling NIC core scans every ring continuously; reacting to coherence messages serves only signaled queues",
		},
	}
}

// runExtNetfn measures interconnect bytes per forwarded packet for a
// header-only middlebox, coherent versus PCIe.
func runExtNetfn(opt Options) *Report {
	sizes := scaled(opt, []int{256, 1536, 4096}, []int{256, 4096})
	t := &stats.Table{
		Name:    "header-only forwarding: interconnect bytes per packet (ICX)",
		Columns: []string{"pkt size", "CC-NIC wire B/pkt", "E810 DMA B/pkt", "reduction"},
	}
	// Each size forwards on CC-NIC and on the E810. The wire and DMA
	// counters cover the whole run, which ends with its window, so no idle
	// polling or ingress after it adds bytes: divide by the packets
	// forwarded over warm-up and window.
	var pts []point
	for _, size := range sizes {
		for _, iface := range []ccnic.Interface{ccnic.CCNIC, ccnic.E810} {
			pts = append(pts, point{ccnic.Config{Platform: "ICX", Interface: iface, HostPrefetch: true},
				run{kind: forwardRun, lo: ccnic.LoopbackOptions{
					PktSize: size, Rate: 3e6, Warmup: 30 * sim.Microsecond, Measure: 100 * sim.Microsecond}}})
		}
	}
	rds := opt.read(pts...)
	for i, size := range sizes {
		span := pts[2*i].run.span().Seconds()
		cc := float64(rds[2*i].wireBytes) / (rds[2*i].pps * span)
		pe := float64(rds[2*i+1].dmaBytes) / (rds[2*i+1].pps * span)
		t.AddRow(stats.Val("%d", size), stats.Val("%.0f", cc),
			stats.Val("%.0f", pe), stats.Val("%.1fx", pe/cc))
	}
	return &Report{Title: "Network-function forwarding", Tables: []*stats.Table{t}}
}
