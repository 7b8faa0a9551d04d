package ccnic_test

import (
	"testing"

	"ccnic"
	"ccnic/internal/cluster"
	"ccnic/internal/device"
	"ccnic/internal/experiments"
	"ccnic/internal/sim"
)

// BenchmarkExperiments regenerates every registered experiment, one
// sub-benchmark per ID (in quick mode, so the full bench suite completes in
// minutes). Run `go run ./cmd/ccbench -all` for the full-scale regeneration.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := e.Run(experiments.Options{Quick: true})
				if len(r.Groups) == 0 && len(r.Tables) == 0 {
					b.Fatalf("%s produced no output", e.ID)
				}
			}
		})
	}
}

// BenchmarkLoopbackCCNIC reports the simulated peak 64B packet rate on ICX
// (8 cores) as a custom metric — the quickest check that model changes have
// not shifted the headline result — with the host's bytes and allocations
// per testbed. It runs CC-NIC and the unoptimized UPI interface, whose one
// 64B packet per 2KB buffer is the sparse layout per-line state must stay
// cheap on. The ccnic-1500, e810-1500 and cx6-1500 runs put 1500B packets
// through CC-NIC and the PCIe NICs on 4 queues, where each payload is a
// multi-line access. Each run also reports resumes/pkt: coroutine switches
// per packet transmitted, over the whole run, which ends with its window.
// Idle polls, every line after the first of a multi-line access and every
// buffer-pool charge after the first of a burst run as spin steps, not
// resumes; a coherent NIC's cores and a PCIe NIC's fetch and deliver
// engines are bodiless, and every driver call parks once. That leaves
// 0.19 (CC-NIC), 0.48 (Unopt), 0.48 (CC-NIC 1500 B), 0.16 (CX6) and 2.6
// (E810) per packet, all of them the generators' own parks; the E810's
// are led by its RxBurst calls, which poll an empty ring far more often,
// and the generator's idle sleeps.
func BenchmarkLoopbackCCNIC(b *testing.B) {
	for _, c := range []struct {
		name    string
		iface   ccnic.Interface
		queues  int
		pktSize int
	}{
		{"ccnic", ccnic.CCNIC, 8, 64}, {"unopt", ccnic.UnoptUPI, 8, 64},
		{"ccnic-1500", ccnic.CCNIC, 4, 1500},
		{"e810-1500", ccnic.E810, 4, 1500}, {"cx6-1500", ccnic.CX6, 4, 1500},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var mpps, resumesPerPkt float64
			for i := 0; i < b.N; i++ {
				tb := ccnic.NewTestbed(ccnic.Config{
					Platform: "ICX", Interface: c.iface, Queues: c.queues, HostPrefetch: true,
				})
				res := tb.RunLoopback(ccnic.LoopbackOptions{
					PktSize: c.pktSize, Window: 128,
					Warmup: 20 * sim.Microsecond, Measure: 60 * sim.Microsecond,
				})
				mpps = res.Mpps()
				var pkts int64
				for q := 0; q < c.queues; q++ {
					pkts += tb.Dev.(device.Injector).TxCount(q)
				}
				resumesPerPkt = float64(tb.Kernel.Resumes()) / float64(pkts)
			}
			b.ReportMetric(mpps, "sim-Mpps")
			b.ReportMetric(resumesPerPkt, "resumes/pkt")
		})
	}
}

// BenchmarkKV runs the key-value store beyond saturation on 4 queues, on
// the direct CX6 and on the CC-NIC Overlay (8 forwarding threads), with the
// host's allocations per run. Each run also reports resumes/op: coroutine
// switches per completed get or set, over the whole run. The CX6's engines
// and the overlay's forwarding threads are bodiless processes, every
// multi-line access runs its lines after the first as spin steps, every
// buffer-pool burst its charges after the first, and every driver call
// parks once: 4.2 resumes per op on the CX6 and 5.9 on the overlay, all of
// them the KV servers' own parks (their store accesses and CPU charges
// lead).
func BenchmarkKV(b *testing.B) {
	for _, c := range []struct {
		name  string
		iface ccnic.Interface
	}{{"cx6", ccnic.CX6}, {"overlay", ccnic.OverlayCCNIC}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var mops, resumesPerOp float64
			for i := 0; i < b.N; i++ {
				tb := ccnic.NewTestbed(ccnic.Config{
					Platform: "ICX", Interface: c.iface, Queues: 4, OverlayThreads: 8, HostPrefetch: true,
				})
				res := tb.RunKVStore(ccnic.KVOptions{RatePerQueue: 10e6, Seed: 1,
					Warmup: 40 * sim.Microsecond, Measure: 40 * sim.Microsecond})
				mops = res.Mops()
				resumesPerOp = float64(tb.Kernel.Resumes()) / float64(res.Gets+res.Sets)
			}
			b.ReportMetric(mops, "sim-Mops")
			b.ReportMetric(resumesPerOp, "resumes/op")
		})
	}
}

// BenchmarkCluster runs two clusters to 1ms with the host's allocations per
// run: fabric-mix is the benchmark's fabric-mix cluster (8 hosts, one
// worker); reliable is TestClusterEventPin's reliable-faults configuration,
// whose watchdogs, health probes and armed switch faults fabric-mix never
// runs. Each reports events/item and resumes/item per completed RPC or
// delivered flow packet, over every shard kernel.
func BenchmarkCluster(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  cluster.Config
	}{{"fabric-mix", fabricMix(1, 1)}, {"reliable", reliableFaults()}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var eventsPerItem, resumesPerItem float64
			for i := 0; i < b.N; i++ {
				c := cluster.New(bc.cfg)
				if err := c.Run(sim.Millisecond); err != nil {
					b.Fatal(err)
				}
				r := c.Report()
				items := float64(r.Done + r.FlowDelivered)
				eventsPerItem = float64(r.Events) / items
				resumesPerItem = float64(clusterResumes(c)) / items
				c.Close()
			}
			b.ReportMetric(eventsPerItem, "events/item")
			b.ReportMetric(resumesPerItem, "resumes/item")
		})
	}
}

// BenchmarkKernel measures the raw event throughput of the simulation
// kernel itself (host-side cost of the whole suite). A single sleeping
// process exercises the run-next fast path: no heap or channel operations.
func BenchmarkKernel(b *testing.B) {
	k := sim.New()
	k.Spawn("spin", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(sim.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelPingPong measures the cross-process switch cost: two
// processes alternating via Sleep so every event is a coroutine switch
// selected on the parking coroutine (the slow path).
func BenchmarkKernelPingPong(b *testing.B) {
	k := sim.New()
	for pp := 0; pp < 2; pp++ {
		k.Spawn("pingpong", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(sim.Nanosecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(k.Events()), "ns/event")
}

// BenchmarkKernelSpin measures a spin step's event cost beside
// BenchmarkKernelPingPong: a spinner and a sleeping peer alternate as they
// do there, but the spinner's events run as spin steps, with no coroutine
// switch into it.
func BenchmarkKernelSpin(b *testing.B) {
	k := sim.New()
	k.Spawn("spinner", func(p *sim.Proc) {
		n := 0
		step := func() (sim.Time, bool) {
			n++
			return sim.Nanosecond, n < b.N
		}
		p.Spin(sim.Nanosecond, step)
	})
	k.Spawn("peer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(sim.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(k.Events()), "ns/event")
}

// BenchmarkKernelWaitSignal measures the event wait/signal path: a waiter
// parked on an Event woken once per signaler iteration.
func BenchmarkKernelWaitSignal(b *testing.B) {
	k := sim.New()
	ev := k.NewEvent("tick")
	k.Spawn("waiter", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(ev)
		}
	})
	k.Spawn("signaler", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(sim.Nanosecond)
			ev.Signal()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
