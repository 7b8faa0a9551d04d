package experiments

import (
	"fmt"

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
	register(&Experiment{
		ID:    "ext-dsa",
		Title: "EXT (§6 Hardware DMA): CPU payload copies vs DSA-offloaded bulk transfers",
		Paper: "§6 suggests on-chip DMA engines (Intel DSA) for CPU-initiated bulk transfers of large packets",
		run:   runExtDSA,
	})
	register(&Experiment{
		ID:    "ext-event",
		Title: "EXT (§3.2 Event-driven NIC): polled vs coherence-event NIC cores at high queue counts",
		Paper: "§3.2 proposes handling coherence messages as signals to avoid software-polling scalability limits",
		run:   runExtEvent,
	})
	register(&Experiment{
		ID:    "ext-netfn",
		Title: "EXT (§6 Network functions): header-only forwarding interconnect traffic",
		Paper: "§6 argues a coherent NIC can retain payloads in NIC cache while the host reads only headers",
		run:   runExtNetfn,
	})
}

// runExtDSA measures single-core large-payload TX preparation throughput
// with CPU copies versus DSA offload.
func runExtDSA(opt Options) *Report {
	const size = 4096
	pkts := 400
	if opt.Quick {
		pkts = 120
	}

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
		var done int
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
			done = pkts
			if eng != nil {
				eng.Stop()
			}
		})
		if err := k.Run(); err != nil {
			panic(err)
		}
		return float64(done) / k.Now().Seconds()
	}

	cpu := measure(false)
	off := measure(true)
	t := &stats.Table{
		Name:    "single-core 4KB TX preparation (SPR)",
		Columns: []string{"transfer path", "Kops/s", "speedup"},
	}
	t.AddRow("CPU copy", fmt.Sprintf("%.0f", cpu/1e3), "1.00x")
	t.AddRow("DSA offload", fmt.Sprintf("%.0f", off/1e3), fmt.Sprintf("%.2fx", off/cpu))
	return &Report{ID: "ext-dsa", Title: "Hardware bulk transfers", Tables: []*stats.Table{t}}
}

// runExtEvent compares descriptor-discovery behavior when one NIC core
// serves many queues, polled versus event-driven.
func runExtEvent(opt Options) *Report {
	counts := []int{2, 8, 16}
	if opt.Quick {
		counts = []int{2, 8}
	}
	t := &stats.Table{
		Name:    "one NIC core serving N trickle queues (ICX, 64B): ring scans per delivered packet",
		Columns: []string{"queues", "polled scans/pkt", "event scans/pkt", "polled lat [ns]", "event lat [ns]"},
	}
	for _, n := range counts {
		row := []string{fmt.Sprintf("%d", n)}
		var scans [2]float64
		var lats [2]float64
		for i, ev := range []bool{false, true} {
			cfg := device.CCNICConfig()
			cfg.NICCores = 1 // one core, one cache
			cfg.EventDriven = ev
			tb := opt.testbed(ccnic.Config{Platform: "ICX", Queues: n, UPI: &cfg, HostPrefetch: true})
			res := tb.RunLoopback(ccnic.LoopbackOptions{
				PktSize: 64, Rate: 40_000,
				Warmup: 20 * sim.Microsecond, Measure: 100 * sim.Microsecond,
			})
			// NICSteps counts the whole run, which ends with its
			// window, so divide by the packets of warm-up and window.
			pkts := res.PPS * (120 * sim.Microsecond).Seconds()
			scans[i] = float64(tb.Dev.(*device.UPI).NICSteps()) / pkts
			lats[i] = res.Latency.Median().Nanoseconds()
		}
		row = append(row,
			fmt.Sprintf("%.0f", scans[0]), fmt.Sprintf("%.1f", scans[1]),
			fmt.Sprintf("%.0f", lats[0]), fmt.Sprintf("%.0f", lats[1]))
		t.AddRow(row...)
	}
	return &Report{
		ID:     "ext-event",
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
	sizes := []int{256, 1536, 4096}
	if opt.Quick {
		sizes = []int{256, 4096}
	}
	t := &stats.Table{
		Name:    "header-only forwarding: interconnect bytes per packet (ICX)",
		Columns: []string{"pkt size", "CC-NIC wire B/pkt", "E810 DMA B/pkt", "reduction"},
	}
	span := 130 * sim.Microsecond
	// forward runs the workload on a fresh testbed and returns it with the
	// number of packets forwarded over the whole span. The wire and DMA
	// counters cover the same span: the run ends with its window, so no
	// idle polling or ingress after it adds bytes.
	forward := func(iface ccnic.Interface, size int) (*ccnic.Testbed, float64) {
		tb := opt.testbed(ccnic.Config{Platform: "ICX", Interface: iface, HostPrefetch: true})
		res := tb.RunForward(ccnic.LoopbackOptions{
			PktSize: size, Rate: 3e6, Warmup: 30 * sim.Microsecond, Measure: 100 * sim.Microsecond,
		})
		return tb, res.PPS * span.Seconds()
	}
	for _, size := range sizes {
		tb, pkts := forward(ccnic.CCNIC, size)
		st := tb.Sys.Link().Stats()
		cc := float64(st.WireBytes[0]+st.WireBytes[1]) / pkts

		tb, pkts = forward(ccnic.E810, size)
		pst := tb.Dev.(*device.PCIeNIC).Endpoint().Stats()
		pe := float64(pst.DMABytes[0]+pst.DMABytes[1]) / pkts

		t.AddRow(fmt.Sprintf("%d", size), fmt.Sprintf("%.0f", cc),
			fmt.Sprintf("%.0f", pe), fmt.Sprintf("%.1fx", pe/cc))
	}
	return &Report{ID: "ext-netfn", Title: "Network-function forwarding", Tables: []*stats.Table{t}}
}
