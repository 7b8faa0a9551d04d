package ccnic

import (
	"testing"

	"ccnic/internal/device"
	"ccnic/internal/sim"
)

// TestOverloadDegradesGracefully offers 10x a queue's capacity: the system
// must neither wedge nor grow without bound — delivered throughput pins
// near capacity and latency saturates at the bounded backlog.
func TestOverloadDegradesGracefully(t *testing.T) {
	for _, iface := range []Interface{CCNIC, E810} {
		iface := iface
		tb := NewTestbed(Config{Platform: "ICX", Interface: iface, Queues: 1, HostPrefetch: true})
		cap := tb.RunLoopback(LoopbackOptions{
			PktSize: 64, Window: 128,
			Warmup: 20 * sim.Microsecond, Measure: 60 * sim.Microsecond,
		})
		tb2 := NewTestbed(Config{Platform: "ICX", Interface: iface, Queues: 1, HostPrefetch: true})
		over := tb2.RunLoopback(LoopbackOptions{
			PktSize: 64, Rate: 10 * cap.PPS,
			Warmup: 20 * sim.Microsecond, Measure: 60 * sim.Microsecond,
		})
		if over.PPS < 0.5*cap.PPS {
			t.Errorf("%v: overload collapsed throughput: %.1f vs capacity %.1f Mpps",
				iface, over.Mpps(), cap.Mpps())
		}
		if over.Dropped > 4*128+256 {
			t.Errorf("%v: unbounded backlog under overload: %d in flight", iface, over.Dropped)
		}
	}
}

// TestTinyPoolBackpressure runs loopback with a pool far smaller than the
// in-flight window: allocation failures must backpressure, not deadlock or
// leak.
func TestTinyPoolBackpressure(t *testing.T) {
	u := device.CCNICConfig()
	u.BigCount = 24 // less than the window
	tb := NewTestbed(Config{Platform: "ICX", Interface: CCNIC, Queues: 1, UPI: &u})
	res := tb.RunLoopback(LoopbackOptions{
		PktSize: 64, Window: 128,
		Warmup: 20 * sim.Microsecond, Measure: 60 * sim.Microsecond,
	})
	if res.PPS <= 0 {
		t.Fatal("tiny pool wedged the loopback")
	}
	if err := tb.Sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTinyRingBackpressure shrinks the descriptor rings below the burst
// size; posting must partially succeed and the system must keep flowing.
func TestTinyRingBackpressure(t *testing.T) {
	u := device.CCNICConfig()
	u.RingLines = 4 // 16 descriptors
	tb := NewTestbed(Config{Platform: "ICX", Interface: CCNIC, Queues: 1, UPI: &u})
	res := tb.RunLoopback(LoopbackOptions{
		PktSize: 64, Window: 64, TxBatch: 32,
		Warmup: 20 * sim.Microsecond, Measure: 60 * sim.Microsecond,
	})
	if res.PPS <= 0 {
		t.Fatal("tiny ring wedged the loopback")
	}
}

// TestMidFlightInterruption stops the kernel mid-run and resumes it; the
// simulation must continue consistently from where it paused.
func TestMidFlightInterruption(t *testing.T) {
	tb := NewTestbed(Config{Platform: "ICX", Interface: CCNIC, Queues: 2, HostPrefetch: true})
	tb.Dev.Start()
	q := tb.Dev.Queue(0)
	host := tb.Hosts[0]
	received := 0
	tb.Kernel.Spawn("app", func(p *sim.Proc) {
		rx := make([]*Buf, 8)
		sent := 0
		for received < 200 {
			if sent-received < 32 {
				b := q.Port().Alloc(p, 64)
				if b != nil {
					b.Len = 64
					host.StreamWrite(p, b.Addr, 64)
					sent += q.TxBurst(p, []*Buf{b})
				}
			}
			got := q.RxBurst(p, rx)
			if got > 0 {
				q.Release(p, rx[:got])
				received += got
			} else {
				p.Sleep(20 * sim.Nanosecond)
			}
		}
	})
	// Run in five slices; state must carry across pauses.
	var last sim.Time
	for i := 0; i < 5 && received < 200; i++ {
		deadline := tb.Kernel.Now() + 10*sim.Microsecond
		if err := tb.Kernel.RunUntil(deadline); err != nil {
			t.Fatal(err)
		}
		if tb.Kernel.Now() < last {
			t.Fatal("time went backwards across RunUntil calls")
		}
		last = tb.Kernel.Now()
	}
	if err := tb.Kernel.RunUntil(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if received < 200 {
		t.Fatalf("only %d packets after resume", received)
	}
	tb.Kernel.Shutdown()
	if err := tb.Sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStopMidTraffic stops the device while packets are in flight; the
// kernel must unwind cleanly and invariants must hold.
func TestStopMidTraffic(t *testing.T) {
	tb := NewTestbed(Config{Platform: "ICX", Interface: UnoptUPI, Queues: 2})
	tb.Dev.Start()
	for i := 0; i < 2; i++ {
		i := i
		q := tb.Dev.Queue(i)
		host := tb.Hosts[i]
		tb.Kernel.Spawn("gen", func(p *sim.Proc) {
			for n := 0; n < 500; n++ {
				b := q.Port().Alloc(p, 64)
				if b == nil {
					p.Sleep(100 * sim.Nanosecond)
					continue
				}
				b.Len = 64
				host.StreamWrite(p, b.Addr, 64)
				q.TxBurst(p, []*Buf{b})
				p.Sleep(50 * sim.Nanosecond)
			}
		})
	}
	if err := tb.Kernel.RunUntil(8 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	// Packets are mid-pipeline now; tear everything down.
	tb.Kernel.Shutdown()
	if tb.Kernel.Live() != 0 {
		t.Errorf("%d processes survived shutdown", tb.Kernel.Live())
	}
	if err := tb.Sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
