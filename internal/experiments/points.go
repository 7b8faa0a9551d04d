package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"

	"ccnic"
	"ccnic/internal/device"
	"ccnic/internal/fault"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// slots bounds the simulations running at once across the process: an
// experiment's own work and every job of a round each hold one, so the
// experiments a caller starts together share GOMAXPROCS CPUs between them.
var slots = make(chan struct{}, runtime.GOMAXPROCS(0))

func acquire() { slots <- struct{}{} }
func release() { <-slots }

// Session is one run of one or more experiments. A testbed experiment
// declares its points as data (a config and the run on it) and reads back
// a small typed reading per point; the session keys each point by its
// resolved config and run and measures each key once, however many
// experiments request it (fig12's 16-core ICX curves are fig11's, table2's
// KV points are fig19's). ccbench runs all of its selected experiments in
// one session; Experiment.Run is a session of one.
type Session struct {
	mu   sync.Mutex
	vals map[any]*entry
}

// entry is one key's value, set before done closes.
type entry struct {
	done chan struct{}
	val  any
}

// NewSession returns an empty session.
func NewSession() *Session { return &Session{vals: map[any]*entry{}} }

// Run regenerates e's report in the session, under the pprof label exp=ID.
// Its own work holds one slot; callers may run any number of experiments
// in one session concurrently.
func (s *Session) Run(e *Experiment, opt Options) *Report {
	acquire()
	defer release()
	opt.sess, opt.exp = s, e.ID
	var r *Report
	pprof.Do(context.Background(), pprof.Labels("exp", e.ID), func(context.Context) { r = e.run(opt) })
	r.ID = e.ID
	return r
}

// job is one measurement of a round: the key naming it, the label its
// profile samples carry, and the work that measures it.
type job struct {
	key   any
	point string
	work  func() any
}

// round runs jobs concurrently and returns their values in order. Each key
// runs once per session, in a slot of its own, under the pprof labels exp
// (the experiment that first requested it) and point; a job whose key has
// already started waits for that value instead, holding no slot. The
// caller lends its own slot to the round while it waits, so the rounds of
// any number of experiments neither oversubscribe the pool nor deadlock on
// it. Every job builds its own simulation, so values do not depend on
// scheduling.
func round[T any](o Options, jobs []job) []T {
	vals := make([]T, len(jobs))
	release()
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for i, j := range jobs {
		//ccnic:nondet-ok deterministic fan-out: each job builds its own kernel
		go func() {
			defer wg.Done()
			o.sess.mu.Lock()
			e, started := o.sess.vals[j.key]
			if !started {
				e = &entry{done: make(chan struct{})}
				o.sess.vals[j.key] = e
			}
			o.sess.mu.Unlock()
			if !started {
				acquire()
				pprof.Do(context.Background(), pprof.Labels("exp", o.exp, "point", j.point),
					func(context.Context) { e.val = j.work() })
				release()
				close(e.done)
			}
			<-e.done
			vals[i] = e.val.(T)
		}()
	}
	wg.Wait()
	acquire()
	return vals
}

// each runs work(p) for every p in params as one round of jobs only the
// experiment runs: each job's key is its own, and its point label is p
// printed.
func each[P, T any](o Options, params []P, work func(P) T) []T {
	jobs := make([]job, len(params))
	for i, p := range params {
		jobs[i] = job{key: new(int), point: fmt.Sprint(p), work: func() any { return work(p) }}
	}
	return round[T](o, jobs)
}

// The workloads a point runs on its testbed: the ccnic.Testbed method of
// each name.
const (
	loopbackRun = "loopback" // RunLoopback
	forwardRun  = "forward"  // RunForward
	kvRun       = "kv"       // RunKVStore
	rpcRun      = "rpc"      // RunRPC
)

// run is a point's workload. KV and RPC runs read lo's Rate (offered per
// queue), Warmup and Measure only; a KV run stores 100k keys, seed 7.
type run struct {
	kind string
	lo   ccnic.LoopbackOptions
	dist string // a KV run's value sizes: "ads" or "geo"
}

func loopRun(lo ccnic.LoopbackOptions) run { return run{kind: loopbackRun, lo: lo} }

// span is the run's warm-up and measurement window. Whole-run counters
// cover exactly it: a run ends with its window.
func (r run) span() sim.Time { return r.lo.Warmup + r.lo.Measure }

// point is one testbed measurement: a config and the run on it.
type point struct {
	cfg ccnic.Config
	run run
}

// reading is what the runner keeps of a point's run: values only, never
// the testbed or a whole result, so a session of readings stays small.
type reading struct {
	pps    float64  // received (or forwarded) packets per second
	median sim.Time // median loopback latency
	// Socket 1's remote READ and RFO counts over the whole run.
	remoteRead, remoteRFO int64
	nicSteps              int64 // a coherent NIC's core iterations
	wireBytes             int64 // coherent link wire bytes, both directions
	dmaBytes              int64 // PCIe DMA bytes, both directions
	faults                fault.Stats
	ops                   float64 // KV or RPC operations per second
}

func (r reading) mpps() float64 { return r.pps / 1e6 }

// pointKey is a point's identity: its resolved config with the values
// behind its pointers, its resolved run, and whether the invariant engine
// rides along. Points with equal keys build the same simulation.
type pointKey struct {
	cfg    ccnic.Config // Plat, UPI and Faults cleared; their values follow
	plat   platform.Platform
	upi    device.UPIConfig
	faults fault.Plan
	run    run
	check  bool
}

// key returns the key of r on cfg, a config resolve returned. A traced
// point's key is fresh, equal to no other: its tracer records one run.
func (o Options) key(cfg ccnic.Config, r run) any {
	if r.lo.Trace != nil {
		return new(int)
	}
	k := pointKey{plat: *cfg.Plat, run: r, check: o.Check}
	k.run.lo = r.lo.Resolved()
	if cfg.UPI != nil {
		k.upi = *cfg.UPI
	}
	if cfg.Faults != nil {
		k.faults = *cfg.Faults
	}
	cfg.Plat, cfg.UPI, cfg.Faults = nil, nil, nil
	k.cfg = cfg
	return k
}

// read measures pts as one round and returns their readings in order.
func (o Options) read(pts ...point) []reading {
	jobs := make([]job, len(pts))
	for i, p := range pts {
		cfg := o.resolve(p.cfg)
		label := fmt.Sprintf("%s %v/%s/%s q%d %dB rate=%.4g", p.run.kind, cfg.Interface,
			cfg.Plat.Name, cfg.Protocol, cfg.Queues, p.run.lo.PktSize, p.run.lo.Rate)
		jobs[i] = job{key: o.key(cfg, p.run), point: label,
			work: func() any { return o.measure(cfg, p.run) }}
	}
	return round[reading](o, jobs)
}

// measure runs r on a fresh testbed of cfg, a config resolve returned, and
// reads it.
func (o Options) measure(cfg ccnic.Config, r run) reading {
	tb := o.testbed(cfg)
	var rd reading
	switch r.kind {
	case loopbackRun:
		res := tb.RunLoopback(r.lo)
		rd.pps, rd.median = res.PPS, res.Latency.Median()
	case forwardRun:
		rd.pps = tb.RunForward(r.lo).PPS
	case kvRun:
		rd.ops = tb.RunKVStore(ccnic.KVOptions{Dist: r.dist, Seed: 7,
			RatePerQueue: r.lo.Rate, Warmup: r.lo.Warmup, Measure: r.lo.Measure}).OpsPerSec
	case rpcRun:
		rd.ops = tb.RunRPC(ccnic.RPCOptions{
			RatePerQueue: r.lo.Rate, Warmup: r.lo.Warmup, Measure: r.lo.Measure}).OpsPerSec
	}
	c := tb.Sys.Counters(1)
	rd.remoteRead, rd.remoteRFO = c.RemoteRead, c.RemoteRFO
	ls := tb.Sys.Link().Stats()
	rd.wireBytes = ls.WireBytes[0] + ls.WireBytes[1]
	switch d := tb.Dev.(type) {
	case *device.UPI:
		rd.nicSteps = d.NICSteps()
	case *device.PCIeNIC:
		ps := d.Endpoint().Stats()
		rd.dmaBytes = ps.DMABytes[0] + ps.DMABytes[1]
	}
	if f := tb.Sys.Faults(); f != nil {
		rd.faults = *f.Stats()
	}
	return rd
}
