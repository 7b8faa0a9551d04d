package sim

import "math"

// Never is a horizon that no clock reaches: a doze that only a watch ends.
const Never = Time(math.MaxInt64)

// A Doze is the idle cycle of a spinning process (see Proc.Spin) whose step
// alternates between two kinds of wake: an issue, which sleeps Issue, and
// a completion, which sleeps Gap. Once the step has found that every later
// wake of the cycle would repeat the same work on the same state, it hands
// the cycle to the kernel (Proc.Doze): from then on the scheduler runs each
// wake as arithmetic — the phase flip, the Count increment of an issue and
// the next sleep — without calling the step. Every wake is still one
// event, selected from the run queue at its own (wake, seq) exactly as the
// step's would be; only the work inside it is skipped.
//
// The doze lasts until a Watch armed for it fires (the state the step
// reads changed), or until the clock reaches its horizon (an instant at
// which the step's reading of that state changes by itself). At the first
// wake after either, the kernel calls the step again, in the phase the
// cycle has reached.
type Doze struct {
	// Issue and Gap are the sleeps after an issue and a completion. Both
	// must be non-negative.
	Issue, Gap Time
	// Count, when non-nil, is incremented at every issue.
	Count *int64
	// Issued is the cycle's phase: the process's next wake completes an
	// issue. The step keeps it while it runs the cycle itself, and the
	// kernel while the process dozes.
	Issued bool

	on      bool
	horizon Time
}

// Dozing reports whether the kernel is running the cycle.
func (d *Doze) Dozing() bool { return d.on }

// Wake ends the doze: the process's next wake calls its step again.
//
//ccnic:noalloc
func (d *Doze) Wake() { d.on = false }

// Doze hands p's cycle to the kernel from p's next wake on, until a watch
// fires or the clock reaches horizon (Never for none). Call it from p's
// step, in the completion that leaves Issued false and returns Gap. It
// declines, reporting false, under a scheduling probe: the kernel's probe
// callback is part of each event, and a dozed event makes none.
//
//ccnic:noalloc
func (p *Proc) Doze(d *Doze, horizon Time) bool {
	k := p.k
	if k.stepping != p {
		panic("sim: Doze outside the process's own spin step")
	}
	if k.probe != nil {
		return false
	}
	d.on, d.horizon = true, horizon
	p.doze = d
	return true
}

// dozeRun runs the event just selected for dozing p as its cycle's
// arithmetic, then every later wake of p that the run-next fast path would
// take back to back: strictly before the heap top, within the deadline and
// before the horizon (no Stop can be pending: reschedule selects no event
// once one is). Those wakes assign no seq and call no probe, so one loop
// here is exactly the events the fast path would have run one by one. It
// leaves p.wake at the first wake past them.
//
//ccnic:noalloc
func (k *Kernel) dozeRun(p *Proc, d *Doze) {
	limit := d.horizon - 1
	if top := k.heap.peek(); top != nil && top.wake <= limit {
		limit = top.wake - 1
	}
	if k.deadline >= 0 && k.deadline < limit {
		limit = k.deadline
	}
	for {
		if d.Issued {
			d.Issued = false
			p.wake = k.now + d.Gap
		} else {
			d.Issued = true
			if d.Count != nil {
				*d.Count++
			}
			p.wake = k.now + d.Issue
		}
		if p.wake > limit {
			return
		}
		k.now = p.wake
		k.events++
	}
}

// A Watch is a doze's tripwire on one piece of model state: the code that
// changes the state fires it, which ends the doze it is armed for. A
// watch holds one doze; firing disarms it. A stale watch — armed for a
// doze that has since woken and dozed again — fires a wake the step did
// not need, which costs one step call and changes nothing.
type Watch struct{ d *Doze }

// Arm arms the watch for d. It declines, reporting false, while another
// doze holds it.
//
//ccnic:noalloc
func (w *Watch) Arm(d *Doze) bool {
	if o := w.d; o != nil && o != d && o.on {
		return false
	}
	w.d = d
	return true
}

// Fire ends the doze the watch is armed for, if any, and disarms it.
//
//ccnic:noalloc
func (w *Watch) Fire() {
	if d := w.d; d != nil {
		w.d = nil
		d.on = false
	}
}
