package device

import (
	"math/rand"
	"testing"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// TestRandomizedMultiQueueWorkload drives several queues with randomized
// burst sizes, packet sizes, and pacing, then checks every global
// invariant. It is the device-level fuzz counterpart of the unit tests.
func TestRandomizedMultiQueueWorkload(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		for _, mkCfg := range []func() UPIConfig{CCNICConfig, UnoptConfig} {
			cfg := mkCfg()
			k := sim.New()
			sys := coherence.NewSystem(k, platform.ICX())
			sys.SetPrefetch(0, true)
			sys.SetPrefetch(1, seed%2 == 0)
			const NQ = 3
			var hosts, nics []*coherence.Agent
			for i := 0; i < NQ; i++ {
				hosts = append(hosts, sys.NewAgent(0, "h"))
				nics = append(nics, sys.NewAgent(1, "n"))
			}
			dev := NewUPI("upi", sys, cfg, hosts, nics)
			dev.Start()
			for qi := 0; qi < NQ; qi++ {
				qi := qi
				q := dev.Queue(qi)
				h := hosts[qi]
				rng := rand.New(rand.NewSource(seed*100 + int64(qi)))
				k.Spawn("gen", func(p *sim.Proc) {
					sent, recv := 0, 0
					rx := make([]*bufpool.Buf, 32)
					const total = 300
					for recv < total && p.Now() < 3*sim.Millisecond {
						if sent < total && sent-recv < 64 {
							burst := 1 + rng.Intn(16)
							if burst > total-sent {
								burst = total - sent
							}
							var bufs []*bufpool.Buf
							for i := 0; i < burst; i++ {
								size := []int{64, 100, 256, 1500}[rng.Intn(4)]
								b := q.Port().Alloc(p, size)
								if b == nil {
									break
								}
								b.Len = size
								b.Seq = uint64(sent + len(bufs) + 1)
								h.StreamWrite(p, b.Addr, size)
								bufs = append(bufs, b)
							}
							n := q.TxBurst(p, bufs)
							if n < len(bufs) {
								q.Port().FreeBurst(p, bufs[n:])
							}
							sent += n
						}
						got := q.RxBurst(p, rx[:1+rng.Intn(31)])
						if got > 0 {
							for i := 0; i < got; i++ {
								if rx[i].Seq != uint64(recv+i+1) {
									t.Errorf("seed %d q%d: got seq %d want %d",
										seed, qi, rx[i].Seq, recv+i+1)
									return
								}
							}
							q.Release(p, rx[:got])
							recv += got
						} else if rng.Intn(2) == 0 {
							p.Sleep(sim.Time(rng.Intn(200)) * sim.Nanosecond)
						}
					}
					if recv < total {
						t.Errorf("seed %d q%d: only %d/%d received", seed, qi, recv, total)
					}
				})
			}
			if err := k.RunUntil(5 * sim.Millisecond); err != nil {
				t.Fatal(err)
			}
			dev.Stop()
			if err := k.RunUntil(6 * sim.Millisecond); err != nil {
				t.Fatal(err)
			}
			k.Shutdown()
			if err := sys.CheckInvariants(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := dev.Pool().CheckConservation(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}
