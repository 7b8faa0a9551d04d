package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// sample is the host cost of one execution of a point, in seconds unless
// named otherwise.
type sample struct {
	setup, run, check float64 // wall time of each span
	cpu               float64 // process CPU over the whole point span
	runCPU            float64 // process CPU over the run span
	// Go runtime deltas over the run span.
	allocs, allocBytes, gcCycles float64
	gcCPU, busyCPU               float64 // runtime/metrics CPU classes
	// cal is the mean of the calibrations just before and just after the
	// execution (see calibrate).
	cal float64
}

func (s sample) span() float64 { return s.setup + s.run + s.check }

// atRef converts one of the sample's host times to reference seconds: the
// time the execution would have taken had the machine run the calibration
// loop at its reference speed.
func (s sample) atRef(seconds float64) float64 { return seconds * calRefSeconds / s.cal }

// pointResult collects every execution of one point in a phase.
type pointResult struct {
	out      outcome // the first execution's outcome
	ran      bool    // out is set
	samples  []sample
	attempts int
	failures []string
}

// phase is one closed loop over a workload's points.
type phase struct {
	points []pointResult
	passes int // passes started
	wall   float64
	cals   []float64 // every calibration, in seconds
	// rss is the process's peak RSS at the end of the first pass. Later
	// passes only add chances for a GC-timing outlier, and how many of them
	// fit in the run depends on the machine's speed.
	rss float64
}

// span is one timed interval of the run, in seconds since the process
// started. Spans nest workload -> point -> {setup, run, check}; the spans of
// one execution share its point index.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a workload span
	Name   string  `json:"name"`
	Point  int     `json:"point"` // -1 for a workload span
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// recorder keeps every span in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() float64 { return time.Since(r.t0).Seconds() }

// open starts a span and returns its index; close ends it.
func (r *recorder) open(parent int, name string, pt int) int {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Point: pt, Start: r.now()})
	return len(r.spans) - 1
}

func (r *recorder) close(id int) float64 {
	s := &r.spans[id]
	s.End = r.now()
	return s.End - s.Start
}

// runPhase runs the points back to back, pass after pass, until at least
// seconds have passed and every point has run once. seconds <= 0 runs
// exactly one pass.
func runPhase(rec *recorder, label string, pts []point, workers int, seconds float64) phase {
	ph := phase{points: make([]pointResult, len(pts))}
	root := rec.open(-1, label, -1)
	start := time.Now()
	ph.cals = append(ph.cals, calibrate())
	for pass := 0; ; pass++ {
		for i := range pts {
			if pass == 1 && i == 0 {
				ph.rss = peakRSSMiB()
			}
			if pass > 0 && time.Since(start).Seconds() >= seconds {
				ph.wall = rec.close(root)
				return ph
			}
			if i == 0 {
				ph.passes++
			}
			res := &ph.points[i]
			n := len(res.samples)
			execute(rec, root, i, pts[i], workers, res)
			collectGarbage()
			ph.cals = append(ph.cals, calibrate())
			if len(res.samples) > n {
				res.samples[n].cal = (ph.cals[len(ph.cals)-2] + ph.cals[len(ph.cals)-1]) / 2
			}
		}
	}
}

// calRefSeconds is calibrate's result on a 2-vCPU Xeon virtual machine at
// its usual speed. It only sets the scale of reference seconds.
const calRefSeconds = 520e-6

// calSink keeps the calibration loop's result live.
var calSink uint64

// calibrate measures how fast the machine runs right now: the shortest of
// four runs of a fixed dependent integer loop. On a shared host the speed
// of the benchmark's vCPUs drifts by a tenth or more over minutes, with the
// load of other tenants, and every host time moves with it; dividing each
// execution's times by the calibrations around it cancels most of that
// drift (see README.md). Taking the shortest run ignores a preemption
// that lands inside one of them.
//
//go:noinline
func calibrate() float64 {
	best := 0.0
	for r := 0; r < 4; r++ {
		t0 := time.Now()
		x := uint64(r)
		for i := 0; i < 250_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			x ^= x >> 29
		}
		calSink += x
		if d := time.Since(t0).Seconds(); r == 0 || d < best {
			best = d
		}
	}
	return best
}

// execute runs one point once and records its spans, host cost, outcome and
// any failure.
func execute(rec *recorder, parent, idx int, pt point, workers int, res *pointResult) {
	res.attempts++
	var s sample
	cpu0 := cpuSeconds()
	ps := rec.open(parent, pt.name, idx)
	fail := func(stage string, err error) {
		rec.close(ps)
		res.failures = append(res.failures, fmt.Sprintf("%s: %s: %v", pt.name, stage, err))
	}

	id := rec.open(ps, "setup", idx)
	inst, err := timedSetup(pt, workers)
	s.setup = rec.close(id)
	if err != nil {
		fail("setup", err)
		return
	}

	var m0, m1 [len(runtimeMetrics)]metrics.Sample
	readRuntime(&m0)
	c0 := cpuSeconds()
	id = rec.open(ps, "run", idx)
	out, err := timedRun(inst)
	s.run = rec.close(id)
	s.runCPU = cpuSeconds() - c0
	readRuntime(&m1)
	if err != nil {
		fail("run", err)
		return
	}
	d := func(i int) float64 { return runtimeValue(m1[i]) - runtimeValue(m0[i]) }
	s.allocs, s.allocBytes, s.gcCycles = d(0), d(1), d(2)
	s.gcCPU, s.busyCPU = d(3), d(4)-d(5)

	id = rec.open(ps, "check", idx)
	err = timedCheck(inst, &out)
	s.check = rec.close(id)
	if err == nil && res.ran && out.digest != res.out.digest {
		err = fmt.Errorf("simulated outputs changed on a repeat run:\n  first:  %s\n  repeat: %s", res.out.digest, out.digest)
	}
	if err != nil {
		fail("check", err)
		return
	}
	rec.close(ps)
	s.cpu = cpuSeconds() - cpu0
	res.samples = append(res.samples, s)
	if !res.ran {
		res.out, res.ran = out, true
	}
}

// The timed* functions are the only frames from which the benchmark calls into
// the layers; the trace attributes CPU samples under them by name (see
// spanOf), so they must stay out of line.

//go:noinline
func timedSetup(pt point, workers int) (inst instance, err error) {
	defer recoverInto(&err)
	return pt.setup(workers), nil
}

//go:noinline
func timedRun(inst instance) (o outcome, err error) {
	defer recoverInto(&err)
	return inst.run()
}

//go:noinline
func timedCheck(inst instance, o *outcome) (err error) {
	defer recoverInto(&err)
	return inst.check(o)
}

// collectGarbage runs a full collection between points, outside every timed
// span, so each point starts from the same heap and peak RSS repeats. It
// leaves the freed pages resident: returning them (debug.FreeOSMemory) made
// kv-zipf a third slower and less steady, as every point faulted its memory
// in again.
//
//go:noinline
func collectGarbage() { runtime.GC() }

// recoverInto turns a panic in a layer (such as a kvstore.StallError) into
// the point's failure, so the run goes on to the next point.
func recoverInto(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v", r)
	}
}

// runtimeMetrics are read around every run span.
var runtimeMetrics = [...]string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime(s *[len(runtimeMetrics)]metrics.Sample) {
	for i := range s {
		s[i].Name = runtimeMetrics[i]
	}
	metrics.Read(s[:])
}

func runtimeValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("ccperf: getrusage: %v", err))
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("ccperf: getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sumQuantile sums, over points, the q-quantile of f among the point's
// passes. Points that never completed contribute nothing.
func (ph *phase) sumQuantile(q float64, f func(sample) float64) float64 {
	total := 0.0
	for i := range ph.points {
		if ss := ph.points[i].samples; len(ss) > 0 {
			v := make([]float64, len(ss))
			for j, s := range ss {
				v[j] = f(s)
			}
			total += quantile(v, q)
		}
	}
	return total
}

// sumBest sums, over points, the lowest value of f among the point's
// passes. Interference from the rest of the machine only ever adds time, so
// a point's fastest pass is its steadiest raw estimate; it also drops the
// first pass's one-off heap growth whenever a point ran more than once.
func (ph *phase) sumBest(f func(sample) float64) float64 { return ph.sumQuantile(0, f) }

// tally sums the simulated counters and items over one pass.
func (ph *phase) tally() (t tally, items int64) {
	for i := range ph.points {
		if res := &ph.points[i]; res.ran {
			t.add(&res.out.tally)
			items += res.out.items
		}
	}
	return t, items
}

func (ph *phase) counts() (attempted, failed int) {
	for _, res := range ph.points {
		attempted += res.attempts
		failed += len(res.failures)
	}
	return attempted, failed
}

// fingerprint hashes every point's simulated outputs, in point order.
func (ph *phase) fingerprint(pts []point) string {
	h := sha256.New()
	for i, res := range ph.points {
		out := "no successful run"
		if res.ran {
			out = res.out.digest
		}
		fmt.Fprintf(h, "%s\n%s\n", pts[i].name, out)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
