package loopback

import (
	"fmt"

	"ccnic/internal/bufpool"
	"ccnic/internal/device"
	"ccnic/internal/mem"
	"ccnic/internal/sim"
)

// ForwardResult reports a header-only forwarding run (§6's network-function
// workload): ingress packets arrive from the wire, the host touches only
// each packet's first cache line, and retransmits the same buffer.
type ForwardResult struct {
	PPS  float64
	Gbps float64
	// HostPayloadLines is the number of payload cache lines the host
	// actually accessed per packet (1 for a header-only middlebox).
	HostPayloadLines float64
}

// Mpps returns forwarded packets per second in millions.
func (r *ForwardResult) Mpps() float64 { return r.PPS / 1e6 }

// RunForward drives the header-only forwarding workload: the device injects
// ingress packets of pktSize at ratePerQueue per queue; host threads read
// each packet's header line and retransmit the buffer unmodified. Returns
// the forwarded throughput. The caller can compare interconnect traffic
// (UPI link stats or PCIe DMA byte counters) across interfaces to observe
// §6's claim: a coherent NIC keeps untouched payloads out of the
// interconnect entirely.
func RunForward(cfg Config, ratePerQueue float64) ForwardResult {
	inj, ok := cfg.Dev.(device.Injector)
	if !ok {
		panic("loopback: forwarding requires an ingress-capable device")
	}
	if cfg.RxBatch == 0 {
		cfg.RxBatch = 32
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 50 * sim.Microsecond
	}
	if cfg.Measure == 0 {
		cfg.Measure = 200 * sim.Microsecond
	}
	k := cfg.Sys.Kernel()
	nq := cfg.Dev.NumQueues()
	if len(cfg.Hosts) != nq {
		panic("loopback: host agent count must match device queues")
	}
	for i := 0; i < nq; i++ {
		size := cfg.PktSize
		inj.SetIngress(i, ratePerQueue, func() int { return size })
	}
	cfg.Dev.Start()

	end := k.Now() + cfg.Warmup + cfg.Measure
	warmupEnd := k.Now() + cfg.Warmup
	counts := make([]int64, nq)

	for i := 0; i < nq; i++ {
		i := i
		q := cfg.Dev.Queue(i)
		a := cfg.Hosts[i]
		k.Spawn(fmt.Sprintf("fwd%d", i), func(p *sim.Proc) {
			rx := make([]*bufpool.Buf, cfg.RxBatch)
			for p.Now() < end {
				got := q.RxBurst(p, rx)
				if got == 0 {
					p.Sleep(cfg.Sys.Platform().PollGap * 2)
					continue
				}
				// Header-only: one line per packet.
				hdrs := make([]mem.Addr, got)
				for j := 0; j < got; j++ {
					hdrs[j] = mem.LineOf(rx[j].Addr)
				}
				a.GatherRead(p, hdrs)
				// Retransmit the same buffers, unmodified.
				sent := 0
				for sent < got && p.Now() < end {
					n := q.TxBurst(p, rx[sent:got])
					if n == 0 {
						p.Sleep(100 * sim.Nanosecond)
						continue
					}
					sent += n
				}
				if sent < got {
					q.Release(p, rx[sent:got])
				}
				if p.Now() > warmupEnd {
					counts[i] += int64(sent)
				}
			}
		})
	}

	deadline := end + 10*cfg.Warmup
	if err := k.RunUntil(deadline); err != nil {
		panic(fmt.Sprintf("loopback: %v", err))
	}
	cfg.Dev.Stop()
	if err := k.RunUntil(deadline + sim.Millisecond); err != nil {
		panic(fmt.Sprintf("loopback: %v", err))
	}

	var res ForwardResult
	for _, c := range counts {
		res.PPS += float64(c) / cfg.Measure.Seconds()
	}
	res.Gbps = res.PPS * float64(cfg.PktSize) * 8 / 1e9
	res.HostPayloadLines = 1
	return res
}
