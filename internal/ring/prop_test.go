package ring_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ccnic/internal/bufpool"
	"ccnic/internal/check"
	"ccnic/internal/coherence"
	"ccnic/internal/platform"
	"ccnic/internal/ring"
	"ccnic/internal/sim"
)

// onProc runs a ring operation, begun on a fresh ring.Walk by start, on p,
// one event per charge, as a process calling it would, and returns its
// count.
func onProc(p *sim.Proc, start func(w *ring.Walk) (sim.Time, bool)) int {
	w := &ring.Walk{}
	if d, ok := start(w); ok {
		p.Spin(d, w.Advance)
	}
	return w.N()
}

// TestInlineRandomInterleavings drives every inline layout with a randomized
// producer/consumer schedule — random batch sizes, random think times, ring
// sized small enough to wrap and backpressure — with the invariant engine
// attached at an aggressive full-scan cadence. The engine enforces the
// descriptor-group properties online (a consumer never reads a clear ready
// flag; skipping to the next group never skips a ready descriptor; credits
// and cursors stay consistent); the test itself asserts end-to-end FIFO
// delivery with no loss or duplication.
func TestInlineRandomInterleavings(t *testing.T) {
	const packets = 300
	for _, layout := range []ring.Layout{ring.Grouped, ring.Packed, ring.Padded} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", layout, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				k := sim.New()
				sys := coherence.NewSystem(k, platform.ICX())
				e := check.Attach(sys)
				e.SetFullEvery(64)

				host := sys.NewAgent(0, "host")
				nic := sys.NewAgent(1, "nic")
				pool := bufpool.New(bufpool.Config{
					Sys: sys, BigCount: 256, BigSize: 4096,
					Shared: true, Recycle: true,
				})
				hp := pool.Attach(host)
				np := pool.Attach(nic)
				r := ring.NewInline(sys, layout, 8, 0)

				var got []uint64
				k.Spawn("producer", func(p *sim.Proc) {
					seq := uint64(1)
					for seq <= packets {
						want := 1 + rng.Intn(8)
						if left := packets - int(seq) + 1; want > left {
							want = left
						}
						bufs := make([]*bufpool.Buf, want)
						if hp.AllocBurst(p, 64, bufs) != want {
							t.Error("pool exhausted")
							return
						}
						for _, b := range bufs {
							b.Seq = seq
							seq++
						}
						n := onProc(p, func(w *ring.Walk) (sim.Time, bool) { return w.Post(r, host, bufs) })
						if n < want {
							// Ring full: return the overflow and rewind.
							hp.FreeBurst(p, bufs[n:])
							seq -= uint64(want - n)
						}
						p.Sleep(sim.Time(rng.Intn(300)) * sim.Nanosecond)
					}
				})
				k.Spawn("consumer", func(p *sim.Proc) {
					for len(got) < packets {
						bufs := make([]*bufpool.Buf, 1+rng.Intn(8))
						bufs = bufs[:onProc(p, func(w *ring.Walk) (sim.Time, bool) { return w.Consume(r, nic, bufs) })]
						for _, b := range bufs {
							got = append(got, b.Seq)
						}
						if len(bufs) > 0 {
							np.FreeBurst(p, bufs)
						} else {
							p.Sleep(sim.Time(50+rng.Intn(300)) * sim.Nanosecond)
						}
					}
				})
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}

				if len(got) != packets {
					t.Fatalf("received %d packets, want %d", len(got), packets)
				}
				for i, s := range got {
					if s != uint64(i+1) {
						t.Fatalf("position %d has seq %d: FIFO order violated", i, s)
					}
				}
				if pool.Outstanding() != 0 {
					t.Errorf("%d buffers leaked", pool.Outstanding())
				}
				if err := pool.CheckConservation(); err != nil {
					t.Error(err)
				}
				if err := sys.CheckInvariants(); err != nil {
					t.Error(err)
				}
				if e.Checks() == 0 && check.TotalChecks() == 0 {
					t.Error("invariant engine performed no checks")
				}
			})
		}
	}
}

// TestRegRandomInterleavings drives the register ring the way the drivers
// do — the producer Posts and rings a tail-register doorbell, the consumer
// writes DD completions and Consumes — under randomized batching, with the
// invariant engine validating index ordering and lap protection online.
func TestRegRandomInterleavings(t *testing.T) {
	const packets = 300
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			k := sim.New()
			sys := coherence.NewSystem(k, platform.ICX())
			e := check.Attach(sys)
			e.SetFullEvery(64)

			host := sys.NewAgent(0, "host")
			nic := sys.NewAgent(1, "nic")
			pool := bufpool.New(bufpool.Config{
				Sys: sys, BigCount: 256, BigSize: 4096, Shared: true,
			})
			hp := pool.Attach(host)
			np := pool.Attach(nic)
			r := ring.NewReg(sys, 16, 0, 1)

			var got []uint64
			k.Spawn("producer", func(p *sim.Proc) {
				seq := uint64(1)
				for seq <= packets {
					want := min(1+rng.Intn(4), r.Space(), packets-int(seq)+1)
					if want == 0 {
						p.Sleep(sim.Time(100+rng.Intn(200)) * sim.Nanosecond)
						continue
					}
					bufs := make([]*bufpool.Buf, want)
					if hp.AllocBurst(p, 64, bufs) != want {
						t.Error("pool exhausted")
						return
					}
					for _, b := range bufs {
						b.Seq = seq
						seq++
					}
					onProc(p, func(w *ring.Walk) (sim.Time, bool) { return w.RegPost(r, host, bufs, nil) })
					host.Write(p, r.TailReg(), 8)
					p.Sleep(sim.Time(rng.Intn(300)) * sim.Nanosecond)
				}
			})
			k.Spawn("consumer", func(p *sim.Proc) {
				for len(got) < packets {
					nic.Read(p, r.TailReg(), 8)
					n := min(r.TailIdx-r.HeadIdx, 1+rng.Intn(4))
					if n == 0 {
						p.Sleep(sim.Time(50+rng.Intn(300)) * sim.Nanosecond)
						continue
					}
					for i := r.HeadIdx; i < r.HeadIdx+n; i++ {
						r.SetDone(i)
					}
					bufs := make([]*bufpool.Buf, n)
					onProc(p, func(w *ring.Walk) (sim.Time, bool) { return w.RegConsume(r, nic, bufs) })
					for _, b := range bufs {
						got = append(got, b.Seq)
					}
					np.FreeBurst(p, bufs)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}

			if len(got) != packets {
				t.Fatalf("received %d packets, want %d", len(got), packets)
			}
			for i, s := range got {
				if s != uint64(i+1) {
					t.Fatalf("position %d has seq %d: FIFO order violated", i, s)
				}
			}
			if pool.Outstanding() != 0 {
				t.Errorf("%d buffers leaked", pool.Outstanding())
			}
			if err := pool.CheckConservation(); err != nil {
				t.Error(err)
			}
		})
	}
}
