// Package loopback implements the paper's measurement methodology (§5.1): a
// DPDK-style traffic generator where each host thread owns a private queue
// pair, allocates TX buffers, writes full timestamped payloads, polls its RX
// queue, touches every received payload, and frees buffers. Throughput is
// counted and latency sampled only after a warmup period.
//
// Two load modes match the paper's sweeps: closed-loop (a fixed in-flight
// window, used to find the maximum sustainable rate) and open-loop (a fixed
// offered rate, used to draw throughput-latency curves up to saturation).
package loopback

import (
	"fmt"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/device"
	"ccnic/internal/mem"
	"ccnic/internal/sim"
	"ccnic/internal/stats"
	"ccnic/internal/trace"
)

// Config describes one loopback run.
type Config struct {
	Sys   *coherence.System
	Dev   device.Device
	Hosts []*coherence.Agent // host agents, one per device queue

	PktSize int
	// Rate is the offered load per queue in packets/second; 0 selects
	// closed-loop mode. RunForward's ingress rate, which must be positive.
	Rate float64
	// Window is the closed-loop in-flight limit per queue (default 64).
	Window int
	// TxBatch and RxBatch are burst sizes (default 32).
	TxBatch int
	RxBatch int

	Warmup  sim.Time // default 50us
	Measure sim.Time // default 200us

	// Trace optionally samples packet lifecycles (nil disables tracing).
	// Queue i's packet seq numbers are offset so samples do not collide.
	Trace *trace.Tracer
}

// Result aggregates a run's measurements.
type Result struct {
	PPS     float64 // received packets per second (all queues)
	Gbps    float64 // received payload throughput
	Latency stats.Histogram
	// Dropped counts packets not received by the end of the run
	// (in-flight remainder; large values indicate overload).
	Dropped int64
}

// Mpps returns throughput in millions of packets per second.
func (r *Result) Mpps() float64 { return r.PPS / 1e6 }

// Resolved returns cfg with the workload defaults filled in: a closed-loop
// window of 64 and bursts of 32. Run and RunForward run the resolved form,
// so two configs that resolve alike run alike.
func (cfg Config) Resolved() Config {
	if cfg.Window == 0 {
		cfg.Window = 64
	}
	if cfg.TxBatch == 0 {
		cfg.TxBatch = 32
	}
	if cfg.RxBatch == 0 {
		cfg.RxBatch = 32
	}
	return cfg
}

// Run executes the loopback workload and returns its measurements.
func Run(cfg Config) Result {
	if err := CheckPktSize(cfg.PktSize, cfg.Dev); err != nil {
		panic("loopback: " + err.Error())
	}
	cfg = cfg.Resolved()
	w := &Window{Name: "loopback", Sys: cfg.Sys, Dev: cfg.Dev, Hosts: len(cfg.Hosts),
		Warmup: cfg.Warmup, Measure: cfg.Measure}
	w.Start()
	end, warmupEnd := w.End, w.WarmupEnd
	type queueStats struct {
		hist       stats.Histogram
		rxCount    int64
		sent, rcvd int64
	}
	qs := make([]queueStats, cfg.Dev.NumQueues())

	for i := 0; i < cfg.Dev.NumQueues(); i++ {
		i := i
		q := cfg.Dev.Queue(i)
		a := cfg.Hosts[i]
		st := &qs[i]
		w.Go(fmt.Sprintf("loopgen%d", i), func(p *sim.Proc) {
			rx := make([]*bufpool.Buf, cfg.RxBatch)
			// The generator's TX burst and line-list scratch.
			var (
				txBufs = make([]*bufpool.Buf, cfg.TxBatch)
				bufs   []*bufpool.Buf
				lines  []mem.Addr
			)
			born := &txBorn{p: p, cfg: &cfg, queue: i}
			var nextSend sim.Time
			interval := sim.Time(0)
			if cfg.Rate > 0 {
				interval = sim.Time(1e12 / cfg.Rate)
				nextSend = p.Now()
			}
			for p.Now() < end {
				progress := false

				// --- Transmit ---
				want := 0
				inflight := int(st.sent - st.rcvd)
				if cfg.Rate == 0 {
					want = cfg.Window - inflight
				} else {
					for nextSend+sim.Time(want)*interval <= p.Now() {
						want++
					}
					// Cap the backlog so overload shows up as
					// latency, not unbounded memory.
					if inflight+want > 4*cfg.Window {
						want = 4*cfg.Window - inflight
					}
				}
				if want > cfg.TxBatch {
					want = cfg.TxBatch
				}
				if want > 0 {
					born.sent = st.sent
					bufs = txBufs[:q.Port().AllocFed(p, txBufs[:want], born)]
					lines = bufpool.Lines(lines[:0], bufs)
					a.ScatterWrite(p, lines)
					n := q.TxBurst(p, bufs)
					for j := 0; j < n; j++ {
						cfg.Trace.Mark(traceSeq(i, bufs[j].Seq), trace.Submitted, p.Now())
					}
					if n < len(bufs) && cfg.Sys.Faults() != nil {
						n = retryTx(p, &cfg, q, i, bufs, n)
					}
					if n < len(bufs) {
						q.Port().FreeBurst(p, bufs[n:])
					}
					st.sent += int64(n)
					if cfg.Rate > 0 {
						nextSend += sim.Time(n) * interval
					}
					progress = n > 0
				}

				// --- Receive ---
				got := q.RxBurst(p, rx)
				if got > 0 {
					lines = bufpool.Lines(lines[:0], rx[:got])
					a.GatherRead(p, lines)
					now := p.Now()
					if pr := cfg.Sys.Probe(); pr != nil {
						if st.rcvd+int64(got) > st.sent {
							pr.Fail(fmt.Errorf("loopback queue %d: received %d packets but only sent %d",
								i, st.rcvd+int64(got), st.sent))
						}
						for j := 0; j < got; j++ {
							b := rx[j]
							if b.Seq == 0 {
								pr.Fail(fmt.Errorf("loopback queue %d: buffer %#x delivered with zero sequence number at t=%v",
									i, b.Addr, now))
							}
							if b.Born > now {
								pr.Fail(fmt.Errorf("loopback queue %d: buffer %#x born at t=%v but received at t=%v",
									i, b.Addr, b.Born, now))
							}
						}
					}
					for j := 0; j < got; j++ {
						b := rx[j]
						cfg.Trace.Mark(traceSeq(i, b.Seq), trace.Received, now)
						if now > warmupEnd {
							st.rxCount++
							st.hist.Record(now - b.Born)
						}
					}
					q.Release(p, rx[:got])
					st.rcvd += int64(got)
					progress = true
				}

				if !progress {
					p.Sleep(cfg.Sys.Platform().PollGap * 2)
				}
			}
		})
	}

	w.Finish()

	var res Result
	measured := w.Measure.Seconds()
	for i := range qs {
		res.PPS += float64(qs[i].rxCount) / measured
		res.Latency.Merge(&qs[i].hist)
		res.Dropped += qs[i].sent - qs[i].rcvd
	}
	res.Gbps = res.PPS * float64(cfg.PktSize) * 8 / 1e9
	return res
}

// txBorn stamps the buffers of a generator's TX burst (bufpool.AllocFeed)
// in the event each one's allocation completes: its length, sequence
// number and birth instant, and the tracer's Born mark, whose order across
// queues decides which records a full tracer evicts.
type txBorn struct {
	p     *sim.Proc
	cfg   *Config
	queue int
	sent  int64 // packets the queue sent before this burst
}

// Size gives every buffer of the burst the run's packet size.
func (g *txBorn) Size(int) (int, bool) { return g.cfg.PktSize, true }

// Took stamps buffer j of the burst.
func (g *txBorn) Took(j int, b *bufpool.Buf) {
	b.Len = g.cfg.PktSize
	b.Born = g.p.Now()
	b.Seq = uint64(g.sent) + uint64(j) + 1
	g.cfg.Trace.Mark(traceSeq(g.queue, b.Seq), trace.Born, b.Born)
}

// retryTx re-offers a partially accepted TX burst with exponential
// backoff. Only reached under an armed fault plan — a lost doorbell or a
// stalled pipeline can leave the ring briefly unreclaimable, and freeing
// the remainder immediately would convert a transient fault into packet
// loss. Returns the total number of buffers accepted; the caller frees
// the rest. Fault-free runs never take this path, keeping the golden
// transcript byte-identical. It is an offered-load generator's bounded
// re-offer, not a push that must deliver, so it is not Window.Push.
func retryTx(p *sim.Proc, cfg *Config, q device.Queue, queue int, bufs []*bufpool.Buf, n int) int {
	st := cfg.Sys.Faults().Stats()
	backoff := 500 * sim.Nanosecond
	for attempt := 0; attempt < 4 && n < len(bufs); attempt++ {
		st.NoteBackoff()
		p.Sleep(backoff)
		backoff *= 2
		m := q.TxBurst(p, bufs[n:])
		if m == 0 {
			continue
		}
		st.NoteRetry()
		for j := n; j < n+m; j++ {
			cfg.Trace.Mark(traceSeq(queue, bufs[j].Seq), trace.Submitted, p.Now())
			cfg.Trace.Mark(traceSeq(queue, bufs[j].Seq), trace.Retried, p.Now())
		}
		n += m
	}
	return n
}

// traceSeq derives a tracer key unique across queues.
func traceSeq(queue int, seq uint64) int64 {
	return int64(queue)<<48 | int64(seq)
}
