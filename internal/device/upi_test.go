package device

import (
	"fmt"
	"testing"

	"ccnic/internal/bufpool"
	"ccnic/internal/check"
	"ccnic/internal/coherence"
	"ccnic/internal/mem"
	"ccnic/internal/platform"
	"ccnic/internal/ring"
	"ccnic/internal/sim"
)

// runUPI builds a one-queue UPI device with cfg and drives n packets of the
// given size through loopback, returning median-ish total time and checking
// ordering and conservation.
func runUPI(t *testing.T, cfg UPIConfig, n, size int) sim.Time {
	t.Helper()
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	hostA := sys.NewAgent(0, "host0")
	nicA := sys.NewAgent(1, "nic0")
	dev := NewUPI("upi", sys, cfg, []*coherence.Agent{hostA}, []*coherence.Agent{nicA})
	dev.Start()
	q := dev.Queue(0)

	var elapsed sim.Time
	k.Spawn("host", func(p *sim.Proc) {
		start := p.Now()
		received := 0
		sent := 0
		nextSeq := uint64(1)
		wantSeq := uint64(1)
		rx := make([]*bufpool.Buf, 32)
		for received < n {
			// Submit in bursts of up to 8, keeping <=64 in flight.
			for sent < n && sent-received < 64 {
				burst := n - sent
				if burst > 8 {
					burst = 8
				}
				bufs := make([]*bufpool.Buf, 0, burst)
				for i := 0; i < burst; i++ {
					b := q.Port().Alloc(p, size)
					if b == nil {
						break
					}
					b.Len = size
					b.Seq = nextSeq
					b.Born = p.Now()
					nextSeq++
					hostA.StreamWrite(p, b.Addr, size)
					bufs = append(bufs, b)
				}
				if len(bufs) == 0 {
					break
				}
				got := q.TxBurst(p, bufs)
				sent += got
				if got < len(bufs) {
					// Ring full: free unaccepted and retry later.
					q.Port().FreeBurst(p, bufs[got:])
					nextSeq -= uint64(len(bufs) - got)
					break
				}
			}
			got := q.RxBurst(p, rx)
			for i := 0; i < got; i++ {
				b := rx[i]
				if b.Seq != wantSeq {
					t.Errorf("cfg %+v: got seq %d, want %d", cfg, b.Seq, wantSeq)
				}
				wantSeq++
				if b.Born >= p.Now() {
					t.Error("packet received before it was born")
				}
				hostA.StreamRead(p, b.Addr, b.Len)
			}
			if got > 0 {
				q.Release(p, rx[:got])
				received += got
			} else {
				p.Sleep(20 * sim.Nanosecond)
			}
		}
		elapsed = p.Now() - start
		dev.Stop()
	})
	if err := k.RunUntil(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if k.Live() > 0 {
		k.Stop()
		k.Shutdown()
		t.Fatalf("cfg %+v: loopback did not complete in time", cfg)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Pool().CheckConservation(); err != nil {
		t.Fatal(err)
	}
	return elapsed
}

func TestCCNICLoopbackDeliversInOrder(t *testing.T) {
	runUPI(t, CCNICConfig(), 200, 64)
}

func TestUnoptLoopbackDeliversInOrder(t *testing.T) {
	runUPI(t, UnoptConfig(), 200, 64)
}

func TestAllDesignPointsWork(t *testing.T) {
	for _, inline := range []bool{true, false} {
		for _, nicMgmt := range []bool{true, false} {
			layouts := []ring.Layout{ring.Grouped}
			if inline {
				layouts = []ring.Layout{ring.Grouped, ring.Packed, ring.Padded}
			}
			for _, layout := range layouts {
				name := fmt.Sprintf("inline=%v,nicmgmt=%v,%v", inline, nicMgmt, layout)
				t.Run(name, func(t *testing.T) {
					cfg := CCNICConfig()
					cfg.InlineSignal = inline
					cfg.NICBufMgmt = nicMgmt
					cfg.Layout = layout
					cfg.SharedPool = nicMgmt
					runUPI(t, cfg, 100, 64)
				})
			}
		}
	}
}

func TestCCNICFasterThanUnoptPerPacket(t *testing.T) {
	// The headline comparison: the optimized interface must beat the
	// E810-layout-over-UPI baseline on the same workload.
	cc := runUPI(t, CCNICConfig(), 400, 64)
	un := runUPI(t, UnoptConfig(), 400, 64)
	if cc >= un {
		t.Errorf("CC-NIC (%v) should be faster than unoptimized UPI (%v)", cc, un)
	}
	t.Logf("CC-NIC %v vs unopt %v (%.2fx)", cc, un, float64(un)/float64(cc))
}

func TestLargePackets(t *testing.T) {
	runUPI(t, CCNICConfig(), 100, 1500)
	runUPI(t, UnoptConfig(), 100, 1500)
}

func TestCCNICSingletonLatency(t *testing.T) {
	// One packet at a time: minimum TX-RX latency. The paper measures
	// ~490ns on ICX; the model should land in that neighborhood.
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	hostA := sys.NewAgent(0, "host0")
	nicA := sys.NewAgent(1, "nic0")
	dev := NewUPI("upi", sys, CCNICConfig(), []*coherence.Agent{hostA}, []*coherence.Agent{nicA})
	dev.Start()
	q := dev.Queue(0)
	var avg sim.Time
	k.Spawn("host", func(p *sim.Proc) {
		const rounds = 50
		var total sim.Time
		rx := make([]*bufpool.Buf, 4)
		for i := 0; i < rounds; i++ {
			p.Sleep(2 * sim.Microsecond) // idle gap: unloaded latency
			b := q.Port().Alloc(p, 64)
			b.Len = 64
			b.Born = p.Now()
			hostA.StreamWrite(p, b.Addr, 64)
			q.TxBurst(p, []*bufpool.Buf{b})
			for {
				got := q.RxBurst(p, rx)
				if got > 0 {
					total += p.Now() - rx[0].Born
					hostA.StreamRead(p, rx[0].Addr, rx[0].Len)
					q.Release(p, rx[:got])
					break
				}
				p.Sleep(5 * sim.Nanosecond)
			}
		}
		avg = total / rounds
		dev.Stop()
	})
	if err := k.RunUntil(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if avg < 200*sim.Nanosecond || avg > 1200*sim.Nanosecond {
		t.Errorf("CC-NIC unloaded loopback latency = %v, want a few hundred ns", avg)
	}
	t.Logf("CC-NIC ICX unloaded TX-RX latency: %v", avg)
}

// An idle single-queue core, a bodiless process, runs its empty poll
// iterations as spin steps: over 10 µs the kernel resumes only a handful of
// coroutines besides the host's, while NICSteps still counts every
// L2Hit+PollGap iteration. A host process waking every 7 ns interleaves
// with the core, so its iterations cannot hide on the run-next fast path.
// The invariant engine sees every poll.
func TestIdlePollSpins(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  UPIConfig
	}{{"ccnic", CCNICConfig()}, {"unopt", UnoptConfig()}} {
		for _, probe := range []bool{false, true} {
			k := sim.New()
			plat := platform.ICX()
			sys := coherence.NewSystem(k, plat)
			var eng *check.Engine
			if probe {
				eng = check.Attach(sys)
			}
			dev := NewUPI("upi", sys, tc.cfg, []*coherence.Agent{sys.NewAgent(0, "host0")},
				[]*coherence.Agent{sys.NewAgent(1, "nic0")})
			dev.Start()
			var hostWakes uint64
			k.Spawn("host", func(p *sim.Proc) {
				for {
					hostWakes++
					p.Sleep(7 * sim.Nanosecond)
				}
			})
			const window = 10 * sim.Microsecond
			if err := k.RunUntil(window); err != nil {
				t.Fatal(err)
			}
			perIter := plat.L2Hit + plat.PollGap
			if r := k.Resumes() - min(k.Resumes(), hostWakes); r > 4 {
				t.Errorf("%s probe=%v: the kernel resumed %d coroutines besides the host in %v, want a handful", tc.name, probe, r, window)
			}
			n, want := dev.NICSteps(), int64(window/perIter)
			if n < want-20 || n > want+1 {
				t.Errorf("%s probe=%v: %d NIC steps in %v, want about %d (one per %v)", tc.name, probe, n, window, want, perIter)
			}
			if eng != nil && eng.Checks() < uint64(n) {
				t.Errorf("%s: the invariant engine ran %d checks over %d NIC steps, want one per spun poll at least", tc.name, eng.Checks(), n)
			}
			k.Stop()
			k.Shutdown()
		}
	}
}

// The host's post lands at every phase of the NIC's poll period, including
// between an idle poll's issue and its completion, and always while the
// core polls idle: on the register ring the tail index has then advanced
// before the tail register's visibility gate, and the iteration whose poll
// completes after it takes the packets; on the Packed ring the post's
// first slot turns ready at its visibility, with no further publish. Every
// run delivers every packet in order, with the pool conserved, and makes
// exactly the events and NIC steps of the same run under a no-op
// validation probe. Each row runs under UPI and under CXL, where the
// producer's store need not invalidate the NIC's polled copy.
func TestPostAcrossPollPeriod(t *testing.T) {
	plat := platform.ICX()
	period := plat.L2Hit + plat.PollGap
	packed := CCNICConfig()
	packed.Layout = ring.Packed
	type result struct {
		events uint64
		steps  int64
	}
	run := func(t *testing.T, name string, cfg UPIConfig, proto coherence.Protocol, off sim.Time, probe bool) result {
		k := sim.New()
		sys := coherence.NewSystemProto(k, plat, proto)
		if probe {
			sys.SetProbe(nopProbe{})
		}
		hostA := sys.NewAgent(0, "host0")
		dev := NewUPI("upi", sys, cfg, []*coherence.Agent{hostA}, []*coherence.Agent{sys.NewAgent(1, "nic0")})
		dev.Start()
		q := dev.Queue(0)
		const n = 8
		got := 0
		k.Spawn("host", func(p *sim.Proc) {
			p.Sleep(2*sim.Microsecond + off)
			t0, n0 := p.Now(), dev.NICSteps()
			bufs := make([]*bufpool.Buf, n)
			for i := range bufs {
				b := q.Port().Alloc(p, 64)
				b.Len, b.Seq, b.Born = 64, uint64(i+1), p.Now()
				hostA.StreamWrite(p, b.Addr, 64)
				bufs[i] = b
			}
			if n, want := dev.NICSteps()-n0, int64((p.Now()-t0)/period); n0 == 0 || n < want || n > want+1 {
				t.Errorf("%s +%v probe=%v: the core made %d polls in the %v before the post landed, want %d empty ones", name, off, probe, n, p.Now()-t0, want)
			}
			if sent := q.TxBurst(p, bufs); sent != n {
				t.Errorf("%s +%v: posted %d of %d", name, off, sent, n)
			}
			rx := make([]*bufpool.Buf, n)
			for got < n && p.Now() < 20*sim.Microsecond {
				m := q.RxBurst(p, rx)
				for _, b := range rx[:m] {
					if got++; b.Seq != uint64(got) {
						t.Errorf("%s +%v: packet %d has seq %d", name, off, got, b.Seq)
					}
				}
				q.Release(p, rx[:m])
				p.Sleep(5 * sim.Nanosecond)
			}
			dev.Stop()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got != n {
			t.Errorf("%s +%v: received %d of %d", name, off, got, n)
		}
		if err := sys.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := dev.Pool().CheckConservation(); err != nil {
			t.Fatalf("%s +%v: %v", name, off, err)
		}
		return result{k.Events(), dev.NICSteps()}
	}
	for _, tc := range []struct {
		name string
		cfg  UPIConfig
	}{{"ccnic", CCNICConfig()}, {"packed", packed}, {"unopt", UnoptConfig()}} {
		for _, proto := range []coherence.Protocol{coherence.ProtoUPI, coherence.ProtoCXL} {
			name := tc.name + "/" + proto.String()
			for off := sim.Time(0); off < period; off += 250 * sim.Picosecond {
				got := run(t, name, tc.cfg, proto, off, false)
				want := run(t, name, tc.cfg, proto, off, true)
				if got != want {
					t.Errorf("%s +%v: plain run made %+v, the probed run %+v", name, off, got, want)
				}
			}
		}
	}
}

// nopProbe is a validation probe that checks nothing: a run under it must
// make exactly the events of the same run without it.
type nopProbe struct{}

func (nopProbe) LineEvent(mem.Addr)              {}
func (nopProbe) ObjectEvent(coherence.Checkable) {}
func (nopProbe) Fail(error)                      {}
