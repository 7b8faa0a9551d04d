package device

import (
	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/sim"
)

// Stub is a minimal software NIC for driving the application workloads
// into TX conditions the real device models never reach: their 1024-deep
// rings and 3us doorbell watchdog recover from any wedge long before the
// software layers' backoff budgets or stall watchdogs matter. RX
// synthesizes packets straight from the buffer pool at the configured
// ingress rate; TX asks an accept function whether the queue takes the
// burst, then counts and frees it. Implements Device and Injector.
type Stub struct {
	k  *sim.Kernel
	qs []*stubQueue
}

type stubQueue struct {
	idx    int
	accept func(p *sim.Proc, queue int) bool
	port   *bufpool.Port
	in     pacer
	rx     stubRx
}

// stubRx feeds RxBurst's allocation burst (bufpool.AllocFeed): buffer i
// takes the arrival due when its allocation starts, in the event buffer
// i-1's completes, as the pacer's loop takes arrivals between allocations.
type stubRx struct {
	q *stubQueue
	p *sim.Proc
}

// Size offers the arrival due now.
func (f *stubRx) Size(int) (int, bool) { return f.q.in.offer(f.p.Now()) }

// Took hands the arrival to its buffer.
func (f *stubRx) Took(_ int, b *bufpool.Buf) {
	b.Len = f.q.in.held
	f.q.in.took()
}

// NewStub builds a stub NIC with one queue per host agent over a recycling
// pool of 1024 4KB buffers per queue, homed on socket 0. accept(p, i)
// reports whether queue i takes the burst offered at p.Now(); it runs
// once per TxBurst call.
func NewStub(sys *coherence.System, hosts []*coherence.Agent, accept func(p *sim.Proc, queue int) bool) *Stub {
	pool := bufpool.New(bufpool.Config{
		Sys: sys, Home: 0, BigCount: 1024 * len(hosts), BigSize: 4096, Recycle: true,
	})
	d := &Stub{k: sys.Kernel()}
	for i, h := range hosts {
		d.qs = append(d.qs, &stubQueue{idx: i, accept: accept, port: pool.Attach(h)})
	}
	return d
}

func (d *Stub) Name() string        { return "stub" }
func (d *Stub) NumQueues() int      { return len(d.qs) }
func (d *Stub) Queue(i int) Queue   { return d.qs[i] }
func (d *Stub) Start()              {}
func (d *Stub) Stop()               {}
func (d *Stub) Kernel() *sim.Kernel { return d.k }

// SetIngress implements Injector.
func (d *Stub) SetIngress(i int, rate float64, gen func() int) {
	d.qs[i].in.set(rate, gen)
}

// TxCount implements Injector.
func (d *Stub) TxCount(i int) int64 { return d.qs[i].in.tx }

func (q *stubQueue) TxBurst(p *sim.Proc, bufs []*bufpool.Buf) int {
	if !q.accept(p, q.idx) {
		return 0
	}
	q.in.tx += int64(len(bufs))
	q.port.FreeBurst(p, bufs)
	return len(bufs)
}

func (q *stubQueue) RxBurst(p *sim.Proc, out []*bufpool.Buf) int {
	q.rx = stubRx{q: q, p: p}
	return q.port.AllocFed(p, out, &q.rx)
}

func (q *stubQueue) Release(p *sim.Proc, bufs []*bufpool.Buf) { q.port.FreeBurst(p, bufs) }
func (q *stubQueue) Port() *bufpool.Port                      { return q.port }
