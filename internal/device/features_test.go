package device

import (
	"testing"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// TestMultiSegmentTX exercises the zero-copy two-segment descriptor path
// the key-value store uses for get responses: the NIC must read both the
// header buffer and the external object segment.
func TestMultiSegmentTX(t *testing.T) {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	hostA := sys.NewAgent(0, "host")
	nicA := sys.NewAgent(1, "nic")
	dev := NewUPI("upi", sys, CCNICConfig(), []*coherence.Agent{hostA}, []*coherence.Agent{nicA})
	dev.Start()
	q := dev.Queue(0)

	// External object memory, pre-written by the host.
	objAddr := sys.Space().Alloc(0, 1024, 0)

	k.Spawn("host", func(p *sim.Proc) {
		hostA.StreamWrite(p, objAddr, 1024)
		b := q.Port().Alloc(p, 32)
		b.Len = 32
		b.ExtAddr, b.ExtLen = objAddr, 1024
		b.Seq = 1
		hostA.StreamWrite(p, b.Addr, 32)
		if q.TxBurst(p, []*bufpool.Buf{b}) != 1 {
			t.Error("multi-segment TX rejected")
		}
		// Loopback returns a single contiguous packet of the combined
		// length (the NIC gathered both segments).
		rx := make([]*bufpool.Buf, 4)
		for {
			got := q.RxBurst(p, rx)
			if got > 0 {
				if rx[0].Len != 32+1024 {
					t.Errorf("looped packet len = %d, want %d", rx[0].Len, 32+1024)
				}
				if rx[0].Seq != 1 {
					t.Errorf("seq = %d", rx[0].Seq)
				}
				q.Release(p, rx[:got])
				break
			}
			p.Sleep(20 * sim.Nanosecond)
		}
		dev.Stop()
	})
	if err := k.RunUntil(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestUPIIngressMode checks the coherent device's synthetic-wire path: the
// op-stream must arrive losslessly and in order even under buffer pressure.
func TestUPIIngressMode(t *testing.T) {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	hostA := sys.NewAgent(0, "host")
	nicA := sys.NewAgent(1, "nic")
	cfg := CCNICConfig()
	cfg.BigCount = 64 // tight pool: injection must backpressure, not drop
	dev := NewUPI("upi", sys, cfg, []*coherence.Agent{hostA}, []*coherence.Agent{nicA})
	sizes := []int{64, 128, 200, 64, 1500, 64}
	next := 0
	dev.SetIngress(0, 5e6, func() int {
		s := sizes[next%len(sizes)]
		next++
		return s
	})
	dev.Start()
	q := dev.Queue(0)
	received := 0
	k.Spawn("host", func(p *sim.Proc) {
		rx := make([]*bufpool.Buf, 8)
		for received < 60 {
			got := q.RxBurst(p, rx)
			for i := 0; i < got; i++ {
				want := sizes[received%len(sizes)]
				if rx[i].Len != want {
					t.Errorf("packet %d len = %d, want %d (op stream desynced)",
						received, rx[i].Len, want)
				}
				received++
			}
			if got > 0 {
				q.Release(p, rx[:got])
			} else {
				p.Sleep(50 * sim.Nanosecond)
			}
		}
		dev.Stop()
	})
	if err := k.RunUntil(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if received < 60 {
		t.Fatalf("received %d ingress packets", received)
	}
}

// TestSharedNICCoresDeliver verifies queue groups on shared NIC cores, in
// both polled and event-driven modes.
func TestSharedNICCoresDeliver(t *testing.T) {
	for _, ev := range []bool{false, true} {
		cfg := CCNICConfig()
		cfg.NICCores = 2
		cfg.EventDriven = ev
		k := sim.New()
		sys := coherence.NewSystem(k, platform.ICX())
		var hosts, nics []*coherence.Agent
		for i := 0; i < 6; i++ {
			hosts = append(hosts, sys.NewAgent(0, "h"))
			nics = append(nics, sys.NewAgent(1, "n"))
		}
		dev := NewUPI("upi", sys, cfg, hosts, nics)
		for i, q := range dev.qs {
			if q.nic != nics[i%2] {
				t.Fatalf("queue %d does not run on NIC agent %d", i, i%2)
			}
		}
		dev.Start()
		done := 0
		for i := 0; i < 6; i++ {
			i := i
			q := dev.Queue(i)
			h := hosts[i]
			k.Spawn("host", func(p *sim.Proc) {
				b := q.Port().Alloc(p, 64)
				b.Len = 64
				h.StreamWrite(p, b.Addr, 64)
				q.TxBurst(p, []*bufpool.Buf{b})
				rx := make([]*bufpool.Buf, 4)
				for {
					if got := q.RxBurst(p, rx); got > 0 {
						q.Release(p, rx[:got])
						break
					}
					p.Sleep(20 * sim.Nanosecond)
				}
				done++
				if done == 6 {
					dev.Stop()
				}
			})
		}
		if err := k.RunUntil(5 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		k.Shutdown()
		if done != 6 {
			t.Fatalf("eventDriven=%v: only %d/6 queues completed", ev, done)
		}
		if ev && dev.NICSteps() > 40 {
			t.Errorf("event-driven used %d scans for 6 packets; expected near-minimal", dev.NICSteps())
		}
	}
}

// TestEventDrivenRejectsIngress documents the unsupported combination.
func TestEventDrivenRejectsIngress(t *testing.T) {
	cfg := CCNICConfig()
	cfg.NICCores = 1
	cfg.EventDriven = true
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	dev := NewUPI("upi", sys, cfg, []*coherence.Agent{sys.NewAgent(0, "h"), sys.NewAgent(0, "h2")},
		[]*coherence.Agent{sys.NewAgent(1, "n"), sys.NewAgent(1, "n2")})
	defer func() {
		if recover() == nil {
			t.Error("expected panic configuring ingress on an event-driven device")
		}
	}()
	dev.SetIngress(0, 1e6, func() int { return 64 })
	_ = k
}

// TestEventDrivenPerQueueCores runs event-driven mode on the default
// one-core-per-queue layout (NICCores 0), which no experiment builds: every
// one of 4 queues delivers its burst whole and in order, with the pool
// conserved.
func TestEventDrivenPerQueueCores(t *testing.T) {
	const queues, n = 4, 8
	cfg := CCNICConfig()
	cfg.EventDriven = true
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	var hosts, nics []*coherence.Agent
	for i := 0; i < queues; i++ {
		hosts = append(hosts, sys.NewAgent(0, "h"))
		nics = append(nics, sys.NewAgent(1, "n"))
	}
	dev := NewUPI("upi", sys, cfg, hosts, nics)
	dev.Start()
	got := make([]int, queues)
	done := 0
	for i := 0; i < queues; i++ {
		q, h := dev.Queue(i), hosts[i]
		k.Spawn("host", func(p *sim.Proc) {
			bufs := make([]*bufpool.Buf, n)
			for j := range bufs {
				b := q.Port().Alloc(p, 64)
				b.Len, b.Seq = 64, uint64(j+1)
				h.StreamWrite(p, b.Addr, 64)
				bufs[j] = b
			}
			if sent := q.TxBurst(p, bufs); sent != n {
				t.Errorf("queue %d: posted %d of %d", i, sent, n)
			}
			rx := make([]*bufpool.Buf, n)
			for got[i] < n && p.Now() < 50*sim.Microsecond {
				m := q.RxBurst(p, rx)
				for _, b := range rx[:m] {
					if got[i]++; b.Seq != uint64(got[i]) {
						t.Errorf("queue %d: packet %d has seq %d", i, got[i], b.Seq)
					}
				}
				q.Release(p, rx[:m])
				p.Sleep(20 * sim.Nanosecond)
			}
			if done++; done == queues {
				dev.Stop()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if g != n {
			t.Errorf("queue %d: received %d of %d", i, g, n)
		}
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Pool().CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
