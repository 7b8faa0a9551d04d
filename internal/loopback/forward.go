package loopback

import (
	"fmt"

	"ccnic/internal/bufpool"
	"ccnic/internal/fault"
	"ccnic/internal/sim"
)

// ForwardResult reports a header-only forwarding run (§6's network-function
// workload): ingress packets arrive from the wire, the host touches only
// each packet's first cache line, and retransmits the same buffer.
type ForwardResult struct {
	PPS  float64
	Gbps float64
}

// Mpps returns forwarded packets per second in millions.
func (r *ForwardResult) Mpps() float64 { return r.PPS / 1e6 }

// RunForward drives the header-only forwarding workload: the device injects
// ingress packets of PktSize at Rate per queue; host threads read
// each packet's header line and retransmit the buffer unmodified. Returns
// the forwarded throughput. The caller can compare interconnect traffic
// (UPI link stats or PCIe DMA byte counters) across interfaces to observe
// §6's claim: a coherent NIC keeps untouched payloads out of the
// interconnect entirely. Forwarding needs ingress: it panics on a Rate of
// zero or less.
func RunForward(cfg Config) ForwardResult {
	if err := CheckPktSize(cfg.PktSize, cfg.Dev); err != nil {
		panic("loopback: " + err.Error())
	}
	if !(cfg.Rate > 0) {
		panic(fmt.Sprintf("loopback: forwarding needs ingress: Rate %v, want more than 0 packets/s per queue", cfg.Rate))
	}
	cfg = cfg.Resolved()
	w := &Window{Name: "loopback", Sys: cfg.Sys, Dev: cfg.Dev, Hosts: len(cfg.Hosts),
		Warmup: cfg.Warmup, Measure: cfg.Measure,
		Rate: cfg.Rate, Ingress: func(int) int { return cfg.PktSize }}
	w.Start()
	nq := cfg.Dev.NumQueues()
	counts := make([]int64, nq)

	for i := 0; i < nq; i++ {
		q := cfg.Dev.Queue(i)
		a := cfg.Hosts[i]
		w.Go(fmt.Sprintf("fwd%d", i), func(p *sim.Proc) {
			rx := make([]*bufpool.Buf, cfg.RxBatch)
			for p.Now() < w.End {
				got := q.RxBurst(p, rx)
				if got == 0 {
					p.Sleep(cfg.Sys.Platform().PollGap * 2)
					continue
				}
				// Header-only: one line per packet.
				a.GatherRead(p, FirstLines(rx[:got]))
				// Retransmit the same buffers, unmodified.
				sent := w.Push(p, q, i, rx[:got], forwardPush)
				if sent < got {
					q.Release(p, rx[sent:got])
				}
				if p.Now() > w.WarmupEnd {
					counts[i] += int64(sent)
				}
			}
		})
	}
	w.Finish()

	var res ForwardResult
	for _, c := range counts {
		res.PPS += float64(c) / w.Measure.Seconds()
	}
	res.Gbps = res.PPS * float64(cfg.PktSize) * 8 / 1e9
	return res
}

// forwardPush is the forwarding loop's TX push: a middlebox that cannot
// retransmit within the KV store's budget drops the packet, as a NIC
// tail-drops, and a burst that goes out after backing off is a retry.
var forwardPush = Backoff{Budget: 8, Credit: (*fault.Stats).NoteRetry}
