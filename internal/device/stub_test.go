package device

import (
	"testing"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// TestStubHoldsDrawnIngressSize: with its pool exhausted, a stub queue
// draws the next packet's size once and holds it, so a generator the host
// replays (the KV op stream) stays aligned, and the first packet after a
// Release carries the held size.
func TestStubHoldsDrawnIngressSize(t *testing.T) {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	hosts := []*coherence.Agent{sys.NewAgent(0, "h")}
	dev := NewStub(sys, hosts, func(*sim.Proc, int) bool { return true })
	calls := 0
	dev.SetIngress(0, 1e9, func() int { calls++; return 64 + calls })
	q := dev.Queue(0)
	k.Spawn("rx", func(p *sim.Proc) {
		var held []*bufpool.Buf
		out := make([]*bufpool.Buf, 32)
		for misses := 0; misses < 8; p.Sleep(sim.Microsecond) {
			n := q.RxBurst(p, out)
			held = append(held, out[:n]...)
			if n == 0 {
				misses++
			}
		}
		if calls > len(held)+1 {
			t.Errorf("generator drawn %d times for %d delivered packets", calls, len(held))
		}
		q.Release(p, held[:1])
		if n := q.RxBurst(p, out[:1]); n != 1 || out[0].Len != 64+len(held)+1 {
			t.Errorf("after Release got %d packets of %d bytes, want the held %d-byte packet",
				n, out[0].Len, 64+len(held)+1)
		}
		q.Release(p, held[1:])
		q.Release(p, out[:1])
	})
	if err := k.RunUntil(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
}
