package device

import (
	"fmt"
	"testing"

	"ccnic/internal/bufpool"
	"ccnic/internal/check"
	"ccnic/internal/coherence"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// runOverlay drives packets through app -> UPI front -> overlay -> CX6
// loopback -> overlay -> UPI front -> app.
func runOverlay(t *testing.T, frontCfg UPIConfig, n int) sim.Time {
	t.Helper()
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	hostA := sys.NewAgent(0, "app0")
	ovA := sys.NewAgent(1, "ov0")
	o := NewOverlay(sys, frontCfg, platform.CX6(), []*coherence.Agent{hostA}, []*coherence.Agent{ovA})
	o.Start()
	q := o.Queue(0)

	var avgLat sim.Time
	k.Spawn("app", func(p *sim.Proc) {
		var total sim.Time
		received, sent := 0, 0
		wantSeq := uint64(1)
		rx := make([]*bufpool.Buf, 16)
		for received < n {
			for sent < n && sent-received < 4 {
				b := q.Port().Alloc(p, 64)
				if b == nil {
					break
				}
				b.Len = 64
				b.Seq = uint64(sent + 1)
				b.Born = p.Now()
				hostA.StreamWrite(p, b.Addr, 64)
				if q.TxBurst(p, []*bufpool.Buf{b}) == 0 {
					q.Port().Free(p, b)
					break
				}
				sent++
			}
			got := q.RxBurst(p, rx)
			for i := 0; i < got; i++ {
				if rx[i].Seq != wantSeq {
					t.Errorf("overlay: got seq %d, want %d", rx[i].Seq, wantSeq)
				}
				wantSeq++
				total += p.Now() - rx[i].Born
				hostA.StreamRead(p, rx[i].Addr, rx[i].Len)
			}
			if got > 0 {
				q.Release(p, rx[:got])
				received += got
			} else {
				p.Sleep(30 * sim.Nanosecond)
			}
		}
		avgLat = total / sim.Time(n)
		o.Stop()
	})
	if err := k.RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if k.Live() > 0 {
		k.Shutdown()
		t.Fatal("overlay loopback did not complete")
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return avgLat
}

func TestOverlayCCNICFront(t *testing.T) {
	lat := runOverlay(t, CCNICConfig(), 150)
	// Overlay latency = CX6 loopback plus UPI hops and copies: must
	// exceed the bare CX6 latency but stay within a few microseconds.
	if lat < 2*sim.Microsecond || lat > 10*sim.Microsecond {
		t.Errorf("overlay latency = %v, want CX6-plus-overhead range", lat)
	}
	t.Logf("overlay (CC-NIC front) latency: %v", lat)
}

func TestOverlayUnoptFront(t *testing.T) {
	runOverlay(t, UnoptConfig(), 150)
}

func TestOverlayIngressMode(t *testing.T) {
	// Synthetic ingress at the PCIe NIC must flow through to the app, and
	// app TX must be counted at the NIC.
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	hostA := sys.NewAgent(0, "app0")
	ovA := sys.NewAgent(1, "ov0")
	o := NewOverlay(sys, CCNICConfig(), platform.CX6(), []*coherence.Agent{hostA}, []*coherence.Agent{ovA})
	o.SetIngress(0, 1e6, func() int { return 128 }) // 1 Mpps of 128B
	o.Start()
	q := o.Queue(0)
	received := 0
	k.Spawn("app", func(p *sim.Proc) {
		rx := make([]*bufpool.Buf, 16)
		for received < 50 {
			got := q.RxBurst(p, rx)
			for i := 0; i < got; i++ {
				// Echo each request back.
				b := q.Port().Alloc(p, 64)
				if b != nil {
					b.Len = 64
					q.TxBurst(p, []*bufpool.Buf{b})
				}
			}
			if got > 0 {
				q.Release(p, rx[:got])
				received += got
			} else {
				p.Sleep(100 * sim.Nanosecond)
			}
		}
		o.Stop()
	})
	if err := k.RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if received < 50 {
		t.Fatalf("received only %d ingress packets", received)
	}
	if o.TxCount(0) == 0 {
		t.Error("app transmissions were not counted at the NIC")
	}
}

// An overlay thread whose only task is one queue's TX is a bodiless
// process: its idle rounds, a poll of the front ring and a PollGap sleep,
// run as spin steps, as a single-queue NIC core's do. The app posts a TX
// burst on each queue every 2 µs, next to a host process that wakes every
// 7 ns, so no iteration can hide on the run-next fast path. Only the TX
// threads run, and after a warm-up burst that primes the PCIe queues, they
// resume a bounded number of times per burst, where Sleep loops would
// resume them at every PollGap. The spin stays engaged under the
// invariant engine, and the front device counts no NIC steps.
func TestOverlayIdleThreadsSpin(t *testing.T) {
	const (
		nq     = 2
		window = 10 * sim.Microsecond
		settle = 15 * sim.Microsecond // untimed warm-up before the window
		every  = 2 * sim.Microsecond  // TX burst period
		burst  = 8
		maxPer = 100 // resumes allowed per queue's burst
	)
	for _, tc := range []struct {
		name string
		cfg  UPIConfig
	}{{"ccnic", CCNICConfig()}, {"unopt", UnoptConfig()}} {
		for _, probe := range []bool{false, true} {
			k := sim.New()
			sys := coherence.NewSystem(k, platform.ICX())
			if probe {
				check.Attach(sys)
			}
			var hosts, threads []*coherence.Agent
			for i := 0; i < nq; i++ {
				hosts = append(hosts, sys.NewAgent(0, fmt.Sprintf("app%d", i)))
			}
			for i := 0; i < 2*nq; i++ {
				threads = append(threads, sys.NewAgent(1, fmt.Sprintf("ov%d", i)))
			}
			o := NewOverlay(sys, tc.cfg, platform.CX6(), hosts, threads)
			o.back.Start()
			for th := 0; th < nq; th++ {
				o.startThread(th)
			}
			var hostResumes, before uint64
			bursts, sent := 0, 0
			k.Spawn("app", func(p *sim.Proc) {
				bufs := make([]*bufpool.Buf, burst)
				post := func() {
					for i := 0; i < nq; i++ {
						q := o.Queue(i)
						n := q.Port().AllocBurst(p, 64, bufs)
						for _, b := range bufs[:n] {
							b.Len, b.Born = 64, p.Now()
						}
						m := q.TxBurst(p, bufs[:n])
						q.Port().FreeBurst(p, bufs[m:n])
						sent += m
					}
				}
				// Warm-up: the first post primes the front queues and
				// the first forward the PCIe ones.
				post()
				if p.Now() > settle/2 {
					t.Errorf("warm-up posts ran until %v, past %v", p.Now(), settle/2)
				}
				p.Sleep(settle - p.Now())
				before = k.Resumes()
				for next := p.Now(); ; {
					if p.Now() >= next {
						post()
						bursts++
						next += every
					}
					// The app was resumed iff some process was
					// while it slept: the run-next fast path runs
					// nothing else.
					r := k.Resumes()
					p.Sleep(7 * sim.Nanosecond)
					if k.Resumes() != r {
						hostResumes++
					}
				}
			})
			if err := k.RunUntil(settle + window); err != nil {
				t.Fatal(err)
			}
			r := k.Resumes() - before - hostResumes
			var fwd int64
			for i := 0; i < nq; i++ {
				fwd += o.TxCount(i)
			}
			t.Logf("%s probe=%v: %d resumes over %d bursts of %d packets on %d queues, %d sent, %d forwarded", tc.name, probe, r, bursts, burst, nq, sent, fwd)
			if sent == 0 || fwd < int64(sent-nq*burst) {
				t.Errorf("%s probe=%v: %d packets sent, %d forwarded", tc.name, probe, sent, fwd)
			}
			if limit := uint64(maxPer*nq*bursts + 4); r > limit {
				t.Errorf("%s probe=%v: %d resumes in %v over %d bursts on %d queues, want at most %d",
					tc.name, probe, r, window, bursts, nq, limit)
			}
			if n := o.front.NICSteps(); n != 0 {
				t.Errorf("%s probe=%v: the front device counted %d NIC steps, want none", tc.name, probe, n)
			}
			k.Shutdown()
		}
	}
}

// With the back PCIe pool exhausted, every packet an overlay thread takes
// off a CC-NIC front ring finds no back buffer for its copy and is dropped.
// The front buffer, which the NIC side owns under NIC buffer management,
// must still return to the front pool: once the threads have drained the
// ring, no front buffer is outstanding and the pool is conserved. Both the
// thread that serves a queue's TX alone and one that serves TX and RX are
// covered.
func TestOverlayDropFreesFrontBuffer(t *testing.T) {
	const n = 40
	for _, threads := range []int{1, 2} {
		k := sim.New()
		sys := coherence.NewSystem(k, platform.ICX())
		hostA := sys.NewAgent(0, "app0")
		var ovs []*coherence.Agent
		for i := 0; i < threads; i++ {
			ovs = append(ovs, sys.NewAgent(1, fmt.Sprintf("ov%d", i)))
		}
		o := NewOverlay(sys, CCNICConfig(), platform.CX6(), []*coherence.Agent{hostA}, ovs)
		o.Start()
		q := o.Queue(0)
		sent := 0
		k.Spawn("app", func(p *sim.Proc) {
			held := make([]*bufpool.Buf, 4096)
			if got := o.back.qs[0].Port().AllocBurst(p, 64, held); got == len(held) {
				t.Errorf("threads=%d: drew %d back buffers, want the pool exhausted", threads, got)
			}
			for i := 0; i < n; i++ {
				b := q.Port().Alloc(p, 64)
				b.Len, b.Seq, b.Born = 64, uint64(i+1), p.Now()
				sent += q.TxBurst(p, []*bufpool.Buf{b})
			}
			p.Sleep(20 * sim.Microsecond)
			o.Stop()
		})
		if err := k.RunUntil(sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		k.Shutdown()
		if sent != n || o.TxCount(0) != 0 {
			t.Fatalf("threads=%d: %d of %d packets sent, %d transmitted; want all sent, none transmitted", threads, sent, n, o.TxCount(0))
		}
		pool := o.front.Pool()
		if out := pool.Outstanding(); out != 0 {
			t.Errorf("threads=%d: %d front buffers outstanding after %d dropped packets, want 0", threads, out, n)
		}
		if err := pool.CheckConservation(); err != nil {
			t.Errorf("threads=%d: %v", threads, err)
		}
	}
}
