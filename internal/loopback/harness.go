package loopback

import (
	"fmt"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/device"
	"ccnic/internal/fault"
	"ccnic/internal/mem"
	"ccnic/internal/sim"
)

// Window is one workload run over a device's queues, measured the §5.1
// way: a warm-up, a measurement window, and a drain that stops the device.
// Loopback, forwarding, the KV store and the RPC stack all run through it.
//
// The workload runs in the processes started with Go. The last of them to
// return stops the device in that same event, so the run ends with its
// window: nothing simulates the idle polling that follows it.
type Window struct {
	Name  string // the package driving the run, for its panics
	Sys   *coherence.System
	Dev   device.Device
	Hosts int // host agents given, one per device queue

	Warmup  sim.Time // default 50us
	Measure sim.Time // default 200us

	// Ingress, when non-nil, switches every queue to synthetic ingress at
	// Rate packets/s; Ingress(i) sizes queue i's next arriving packet.
	Rate    float64
	Ingress func(queue int) int

	WarmupEnd, End sim.Time // set by Start

	inj   device.Injector
	tx    int64       // packets the device transmitted in the window
	stall *StallError // the first watchdog trip
	procs []string    // every Go process's name, "" once it returned
	live  int         // Go processes not yet returned
}

// Start checks the run's shape, fills in the defaults, wires up ingress
// and starts the device.
func (w *Window) Start() {
	if w.Hosts != w.Dev.NumQueues() {
		panic(w.Name + ": host agent count must match device queues")
	}
	// Shard affinity: the workload drives device and memory system from
	// one set of processes, so all three must share one kernel (= shard).
	k := w.Sys.Kernel()
	if w.Dev.Kernel() != k {
		panic(w.Name + ": device and memory system must share one kernel (shard affinity)")
	}
	if w.Warmup == 0 {
		w.Warmup = 50 * sim.Microsecond
	}
	if w.Measure == 0 {
		w.Measure = 200 * sim.Microsecond
	}
	w.inj, _ = w.Dev.(device.Injector)
	if w.Ingress != nil {
		if w.inj == nil {
			panic(w.Name + ": device must support ingress injection")
		}
		for i := 0; i < w.Dev.NumQueues(); i++ {
			w.inj.SetIngress(i, w.Rate, func() int { return w.Ingress(i) })
		}
	}
	w.Dev.Start()
	w.WarmupEnd = k.Now() + w.Warmup
	w.End = w.WarmupEnd + w.Measure
}

// CountTx snapshots the device's TX counts at the warm-up boundary and at
// the end for Transmitted: throughput is what the NIC transmits, not what
// the host enqueues, so ring backlog does not count.
// The accounting is one of the run's Go processes, so the device cannot
// stop before the End snapshot.
func (w *Window) CountTx() {
	w.Go(w.Name+"-accounting", func(p *sim.Proc) {
		p.Sleep(w.WarmupEnd - p.Now())
		for i := 0; i < w.Dev.NumQueues(); i++ {
			w.tx -= w.inj.TxCount(i)
		}
		p.Sleep(w.End - p.Now())
		for i := 0; i < w.Dev.NumQueues(); i++ {
			w.tx += w.inj.TxCount(i)
		}
	})
}

// Transmitted returns the packets the device transmitted in the
// measurement window, over every queue; it needs CountTx.
func (w *Window) Transmitted() int64 { return w.tx }

// Go spawns one of the run's workload processes. When the last of them
// returns, it stops the device in that same event; the device's engines
// exit at their next iteration and the kernel drains.
func (w *Window) Go(name string, fn func(*sim.Proc)) {
	i := len(w.procs)
	w.procs = append(w.procs, name)
	w.live++
	w.Sys.Kernel().Spawn(name, func(p *sim.Proc) {
		fn(p)
		w.procs[i] = ""
		if w.live--; w.live == 0 {
			w.Dev.Stop()
		}
	})
}

// backstop is how far past End Finish runs, in warm-ups, before it
// declares a Go process wedged.
const backstop = 10

// Finish runs the kernel until it drains, which it does once every Go
// process has returned and the device they stopped has exited. The run is
// cut at End plus backstop warm-ups: a Go process still live there panics
// with a *WedgeError. Otherwise Finish panics with the first *StallError a
// Push recorded.
func (w *Window) Finish() {
	k := w.Sys.Kernel()
	if err := k.RunUntil(w.End + backstop*w.Warmup); err != nil {
		panic(fmt.Sprintf("%s: %v", w.Name, err))
	}
	if w.live > 0 {
		we := &WedgeError{Workload: w.Name, At: k.Now()}
		for _, name := range w.procs {
			if name != "" {
				we.Procs = append(we.Procs, name)
			}
		}
		panic(we)
	}
	if w.stall != nil {
		panic(w.stall)
	}
}

// WedgeError reports Go processes still live at Finish's backstop: a
// workload loop that never saw the window end. Each process name carries
// its device queue's index (loopgen3 serves queue 3).
type WedgeError struct {
	Workload string   // the run's Window.Name
	Procs    []string // the live Go processes, in spawn order
	At       sim.Time // the backstop's simulation time
}

func (e *WedgeError) Error() string {
	return fmt.Sprintf("%s: window processes %q still live at the t=%v backstop", e.Workload, e.Procs, e.At)
}

// StallAfter is Push's liveness watchdog. A legitimate fault-free stall
// is bounded by the device's drain rate and is microseconds at worst.
const StallAfter = 200 * sim.Microsecond

// StallError reports a queue whose TX push made no progress for
// StallAfter, so a hang diagnoses like a kernel deadlock error rather than
// reading as low throughput.
type StallError struct {
	Workload string   // the run's Window.Name
	Queue    int      // wedged device queue index
	Stalled  sim.Time // how long the push made no progress
	Pending  int      // packets still awaiting submission
	At       sim.Time // simulation time the watchdog fired
}

func (e *StallError) Error() string {
	return fmt.Sprintf("%s: queue %d TX stalled for %v with %d packets pending at t=%v",
		e.Workload, e.Queue, e.Stalled, e.Pending, e.At)
}

// pushPoll is Push's fault-free poll interval and its first backoff.
const pushPoll = 100 * sim.Nanosecond

// Backoff is a layer's TX push policy under an armed fault plan (DESIGN
// §6): zero-progress attempts back off exponentially from pushPoll, and
// after Budget backoffs the remainder drops as timed out.
type Backoff struct {
	Budget int
	Credit func(*fault.Stats) // the layer's counter for a burst sent after backing off
}

// Push submits bufs on queue q until the device takes them all or the
// window ends, and returns how many it took; the caller owns bufs[sent:].
// Fault-free, a zero-progress attempt polls again after pushPoll; under
// an armed plan it backs off per b. A push that makes no progress for
// StallAfter records a *StallError for Finish and gives up.
func (w *Window) Push(p *sim.Proc, q device.Queue, queue int, bufs []*bufpool.Buf, b Backoff) int {
	flt := w.Sys.Faults()
	st := flt.Stats()
	sent, misses := 0, 0
	backoff := pushPoll
	stallStart := sim.Time(-1)
	for sent < len(bufs) && p.Now() < w.End {
		if n := q.TxBurst(p, bufs[sent:]); n > 0 {
			if flt != nil && misses > 0 {
				b.Credit(st)
			}
			sent += n
			misses, backoff, stallStart = 0, pushPoll, -1
			continue
		}
		now := p.Now()
		if stallStart < 0 {
			stallStart = now
		} else if now-stallStart >= StallAfter {
			if w.stall == nil {
				w.stall = &StallError{w.Name, queue, now - stallStart, len(bufs) - sent, now}
			}
			return sent
		}
		if flt == nil {
			p.Sleep(pushPoll)
			continue
		}
		if misses++; misses > b.Budget {
			for range bufs[sent:] {
				st.NoteDrop()
			}
			return sent
		}
		st.NoteBackoff()
		p.Sleep(backoff)
		backoff *= 2
	}
	return sent
}

// FirstLines returns the first cache line of each buffer: its header.
func FirstLines(bufs []*bufpool.Buf) []mem.Addr {
	lines := make([]mem.Addr, 0, len(bufs))
	for _, b := range bufs {
		lines = append(lines, mem.LineOf(b.Addr))
	}
	return lines
}

// CheckPktSize reports an error if host packets of size bytes would run
// past the device's host buffers.
func CheckPktSize(size int, dev device.Device) error {
	if capacity := dev.Queue(0).Port().MaxLen(); size > capacity {
		return fmt.Errorf("%d-byte packets exceed the %d-byte host buffers", size, capacity)
	}
	return nil
}
