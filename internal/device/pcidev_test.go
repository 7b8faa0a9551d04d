package device

import (
	"testing"

	"ccnic/internal/bufpool"
	"ccnic/internal/check"
	"ccnic/internal/coherence"
	"ccnic/internal/fault"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// runPCIe drives n loopback packets through a one-queue PCIe NIC, checking
// in-order delivery, invariants and pool conservation, and returns the
// average unloaded latency when gap > 0 (singleton mode) or the total
// elapsed time in pipelined mode. A non-nil flt arms its fault plan.
func runPCIe(t *testing.T, nic *platform.NICParams, n, size int, gap sim.Time, flt *fault.Injector) (avgLat, elapsed sim.Time) {
	t.Helper()
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	sys.SetFaults(flt)
	hostA := sys.NewAgent(0, "host0")
	dev := NewPCIeNIC(sys, nic, []*coherence.Agent{hostA})
	dev.Start()
	q := dev.Queue(0)

	k.Spawn("host", func(p *sim.Proc) {
		start := p.Now()
		var totalLat sim.Time
		received, sent := 0, 0
		wantSeq := uint64(1)
		rx := make([]*bufpool.Buf, 32)
		for received < n {
			inflight := sent - received
			if sent < n && (gap > 0 && inflight == 0 || gap == 0 && inflight < 64) {
				if gap > 0 {
					p.Sleep(gap)
				}
				burst := 1
				if gap == 0 {
					burst = min(8, n-sent)
				}
				bufs := make([]*bufpool.Buf, 0, burst)
				for i := 0; i < burst; i++ {
					b := q.Port().Alloc(p, size)
					if b == nil {
						break
					}
					b.Len = size
					b.Seq = uint64(sent + i + 1)
					b.Born = p.Now()
					hostA.StreamWrite(p, b.Addr, size)
					bufs = append(bufs, b)
				}
				sent += q.TxBurst(p, bufs)
			}
			got := q.RxBurst(p, rx)
			for i := 0; i < got; i++ {
				b := rx[i]
				if b.Seq != wantSeq {
					t.Errorf("%s: got seq %d, want %d", nic.Name, b.Seq, wantSeq)
				}
				wantSeq++
				totalLat += p.Now() - b.Born
				hostA.StreamRead(p, b.Addr, b.Len)
			}
			if got > 0 {
				q.Release(p, rx[:got])
				received += got
			} else {
				p.Sleep(20 * sim.Nanosecond)
			}
		}
		avgLat = totalLat / sim.Time(n)
		elapsed = p.Now() - start
		dev.Stop()
	})
	if err := k.RunUntil(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if k.Live() > 0 {
		k.Shutdown()
		t.Fatalf("%s: loopback did not complete", nic.Name)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Pool().CheckConservation(); err != nil {
		t.Fatal(err)
	}
	return avgLat, elapsed
}

func TestE810MinimumLatency(t *testing.T) {
	lat, _ := runPCIe(t, platform.E810(), 40, 64, 3*sim.Microsecond, nil)
	// Paper: 3809ns minimum loopback latency on ICX.
	if lat < 3200*sim.Nanosecond || lat > 4500*sim.Nanosecond {
		t.Errorf("E810 unloaded latency = %v, want ~3.8us", lat)
	}
	t.Logf("E810 unloaded loopback latency: %v", lat)
}

func TestCX6MinimumLatency(t *testing.T) {
	lat, _ := runPCIe(t, platform.CX6(), 40, 64, 3*sim.Microsecond, nil)
	// Paper: 2116ns minimum loopback latency on ICX.
	if lat < 1700*sim.Nanosecond || lat > 2600*sim.Nanosecond {
		t.Errorf("CX6 unloaded latency = %v, want ~2.1us", lat)
	}
	t.Logf("CX6 unloaded loopback latency: %v", lat)
}

func TestPCIePipelinedDelivery(t *testing.T) {
	for _, nic := range []*platform.NICParams{platform.E810(), platform.CX6()} {
		_, elapsed := runPCIe(t, nic, 500, 64, 0, nil)
		perPkt := elapsed / 500
		// Pipelined per-packet time must be far below the unloaded
		// latency (otherwise nothing is overlapping).
		if perPkt > 1500*sim.Nanosecond {
			t.Errorf("%s: pipelined per-packet %v, expected deep overlap", nic.Name, perPkt)
		}
		t.Logf("%s pipelined per-packet: %v", nic.Name, perPkt)
	}
}

func TestPCIeLargePackets(t *testing.T) {
	runPCIe(t, platform.E810(), 100, 1500, 0, nil)
	runPCIe(t, platform.CX6(), 100, 1500, 0, nil)
}

// TestPCIeDoorbellRecovery drops and duplicates a quarter of all doorbell
// writes, TX and RX, on pipelined loopback: the watchdog must re-ring every
// lost tail so that each packet still arrives, in order, with the pool
// conserved.
func TestPCIeDoorbellRecovery(t *testing.T) {
	plan, err := fault.ParsePlan("seed=1,dbdrop=0.25,dbdup=0.25")
	if err != nil {
		t.Fatal(err)
	}
	for _, nic := range []*platform.NICParams{platform.E810(), platform.CX6()} {
		flt := fault.NewInjector(plan, 0)
		runPCIe(t, nic, 500, 64, 0, flt)
		st := flt.Stats()
		if st.Rerings == 0 || st.Injected[fault.DoorbellDup] == 0 {
			t.Errorf("%s: %d re-rings, %d duplicate doorbells; want both > 0",
				nic.Name, st.Rerings, st.Injected[fault.DoorbellDup])
		}
		t.Logf("%s: %s", nic.Name, st.Format())
	}
}

// The PCIe engines wait as spin events. Next to a host process that wakes
// every 7 ns, so no engine iteration can hide on the run-next fast path,
// an idle E810 or CX6 engine resumes no coroutine in 10 µs, where Sleep
// loops would resume it at every PollGap. With synthetic ingress, and with
// the RX engine, given no blanks, waiting for one, the bound is about one
// resume per arrival. With the host posting bursts of fetchBurst+4
// descriptors, the fetch engine finds the last 4 inside the coalescing
// window right after fetching the rest, and waits the window out.
// Saturated, ingress far beyond what the RX engine drains (none: the host
// posts no blank) fills the backlog to maxBacklog before the window, and
// from then on the fetch engine trims the wire's lag (catchUp) at every
// PollGap. The waits stay spin events under the invariant engine.
func TestPCIeIdleEnginesSpin(t *testing.T) {
	const (
		window = 10 * sim.Microsecond
		settle = 5 * sim.Microsecond // untimed setup before the window
		every  = 2 * sim.Microsecond // TX burst period
		burst  = fetchBurst + 4
	)
	for _, nic := range []*platform.NICParams{platform.E810(), platform.CX6()} {
		for _, tc := range []struct {
			name   string
			rate   float64 // synthetic ingress, packets/s
			posts  bool    // the host posts a TX burst every period
			maxPer int     // engine resumes allowed per arrival or burst
		}{{"idle", 0, false, 0}, {"ingress", 1e6, false, 2}, {"tx", 0, true, 4}, {"saturated", 200e6, false, 2}} {
			for _, probe := range []bool{false, true} {
				k := sim.New()
				sys := coherence.NewSystem(k, platform.ICX())
				if probe {
					check.Attach(sys)
				}
				hostA := sys.NewAgent(0, "host0")
				dev := NewPCIeNIC(sys, nic, []*coherence.Agent{hostA})
				q := dev.qs[0]
				arrivals := 0
				if tc.rate > 0 {
					dev.SetIngress(0, tc.rate, func() int { arrivals++; return 64 })
				}
				dev.Start()
				var hostResumes, before uint64
				arrived, bursts := 0, 0
				k.Spawn("host", func(p *sim.Proc) {
					var bufs []*bufpool.Buf
					if tc.posts {
						bufs = make([]*bufpool.Buf, int(window/every)*burst)
						q.hostPort.AllocBurst(p, 64, bufs)
					}
					if p.Now() > settle {
						t.Errorf("setup ran until %v, past %v", p.Now(), settle)
					}
					p.Sleep(settle - p.Now())
					before, arrived = k.Resumes(), arrivals
					for next := p.Now(); ; {
						// A post is slot writes, a tail bump and a
						// doorbell, none of which yields.
						if tc.posts && p.Now() >= next && len(bufs) > 0 {
							for _, b := range bufs[:burst] {
								b.Len, b.Born = 64, p.Now()
								q.txR.Put(q.txR.TailIdx, b)
								q.txR.TailIdx++
							}
							bufs = bufs[burst:]
							q.publish(&q.txDb, q.txR.TailIdx)
							bursts++
							next += every
						}
						// The host was resumed iff some process was
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
				arrived = arrivals - arrived
				t.Logf("%s %s probe=%v: %d engine resumes, %d arrivals, %d bursts", nic.Name, tc.name, probe, r, arrived, bursts)
				if tc.name == "saturated" {
					if q.backlog() < maxBacklog {
						t.Errorf("%s saturated probe=%v: backlog %d, want it full at %d", nic.Name, probe, q.backlog(), maxBacklog)
					}
					// The step trims the wire's lag at every tick,
					// as the iteration would.
					if lag := k.Now() - q.in.next; lag > ingressLag+sys.Platform().PollGap {
						t.Errorf("%s saturated probe=%v: the wire lags %v behind, want at most %v", nic.Name, probe, lag, ingressLag)
					}
				}
				if limit := uint64(tc.maxPer*(arrived+bursts) + 4); r > limit {
					t.Errorf("%s %s probe=%v: the engines resumed %d times in %v over %d arrivals and %d TX bursts, want at most %d",
						nic.Name, tc.name, probe, r, window, arrived, bursts, limit)
				}
				k.Shutdown()
			}
		}
	}
}
