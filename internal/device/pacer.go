package device

import "ccnic/internal/sim"

// pacer is a queue's Injector state: its TX count and its synthetic
// ingress, where packets arrive from the wire at a fixed rate, each sized
// by the generator. A size is drawn once and held until the device takes
// that packet, so a device out of buffers replays the same arrival later
// and a generator shared with the host (the KV op stream) stays aligned.
type pacer struct {
	rate float64
	gen  func() int // nil: the queue loops TX back instead
	held int        // size drawn but not yet delivered
	next sim.Time   // arrival time of the next packet
	tx   int64      // packets transmitted since Start
}

// set implements Injector.SetIngress for one queue.
func (pc *pacer) set(rate float64, gen func() int) { pc.rate, pc.gen = rate, gen }

// offer returns the size of the arrival due by now, drawn once and held
// until the device takes it, or false when none is due. The first arrival
// starts the clock.
//
//ccnic:noalloc
func (pc *pacer) offer(now sim.Time) (int, bool) {
	if pc.gen == nil || pc.rate <= 0 || now < pc.next {
		return 0, false
	}
	if pc.next == 0 {
		pc.next = now
	}
	if pc.held == 0 {
		pc.held = pc.gen()
	}
	return pc.held, true
}

// took records that the device took the arrival offer returned.
//
//ccnic:noalloc
func (pc *pacer) took() {
	pc.held = 0
	pc.next += sim.Time(1e12 / pc.rate)
}

// catchUp gives up the arrivals more than lag overdue: a wire that
// outpaces the device loses them at the MAC, and the backlog stays
// bounded. The held size is kept.
//
//ccnic:noalloc
func (pc *pacer) catchUp(now, lag sim.Time) {
	if pc.gen != nil && pc.rate > 0 && now-pc.next > lag {
		pc.next = now - lag
	}
}
