// Command ccperf is the repository's benchmark: it runs one named workload
// of the simulator and prints the host cost of regenerating it, end to end
// and, with -trace 1, layer by layer.
//
// Usage (from the repository root; run.sh builds the command first):
//
//	bash cmd/ccperf/run.sh -workload <name> [-seed n] [-seconds s] [-trace 0|1] [-spans file]
//	bash cmd/ccperf/run.sh -verify [-workload <name>] [-seed n]
//
// A workload is a list of points, each one testbed or cluster, derived from
// -seed. One goroutine runs the points back to back, pass after pass,
// until -seconds have passed and every point has run once; fabric-mix's
// shard engine also runs at one worker (see workersFor). The
// benchmark times its own calls into each layer's public entry points (setup:
// ccnic.NewTestbed, kvstore.NewStore, cluster.New; run: RunLoopback,
// kvstore.Run, Cluster.Run), reads the layers' public counters afterwards,
// and checks each point's outputs outside the timed spans: buffer-pool and
// switch conservation, a positive work count, a non-empty latency histogram,
// and outputs that repeat exactly on every pass. A panic in a layer fails its
// point and the run goes on. A full GC runs between points, outside every
// span, so each point starts from the same heap.
//
// Workloads, and why each is in the benchmark. One pass over a workload's
// points takes about a second, so a run of 20 s times every point a dozen
// times or more:
//
//	loopback-64    ICX CC-NIC and UPI-unopt, 1/4/8 queues, 64 B: the headline
//	               small-packet path, where per-packet polling, doorbell, ring and
//	               bufpool work dominate and no PCIe runs.
//	loopback-1500  the same grid at 1500 B for CC-NIC, E810 and CX6, 1/4 queues:
//	               per-line coherence, interconnect and PCIe DMA dominate and
//	               per-packet ring work is amortized; a change that helps one path
//	               and taxes the other shows against loopback-64.
//	derate-sweep   48 short SPR testbeds, derated latency x1-4 and bandwidth
//	               x0.4-1, alternating UPI and CXL: a fresh testbed per point, as
//	               most experiments build, so first-touch allocation and GC weigh
//	               most.
//	kv-zipf        the key-value store, 1M keys, Zipf 0.75, 95/5 get/set, on CX6
//	               and the CC-NIC Overlay: a working set that dwarfs the rings
//	               loads directory and cache paging, kvstore/traffic and host memory.
//	fabric-mix     8 hosts on the shard engine, closed-loop RPCs plus an open-loop
//	               Ads tenant flow: bypasses coherence, ring and device; the shard
//	               engine, DRR and the cluster transport are the critical path.
//
// The seed varies each workload's inputs but not how much work they are, so
// runs on different seeds measure the same cost.
//
// End-to-end metrics, all lower-is-better: cpu_ref_s (the sum over points of
// the lower quartile, over passes, of the process CPU time of the point
// span), setup_s (the same with the median constructor span's wall time), and
// peak_rss_mib (the process's peak RSS over the first pass). The times are in
// reference seconds: each execution is scaled by a calibration loop timed
// just before and after it, which cancels most of the drift in the speed of
// a shared machine (see calibrate). fail_frac, failed points over attempted,
// wall_ref_s and the raw times are printed beside them.
//
// -trace 1 splits the time evenly between an untraced phase, a phase under a
// CPU profile and, for fabric-mix, a phase at min(2, GOMAXPROCS) shard
// workers, and splits the untraced run time by the innermost ccnic/internal
// frame of each profile sample. It prints the per-layer metrics listed in
// README.md, which also gives the layer table, the bounds, and how to read a
// traced run.
//
// A change that only claims performance must leave every fingerprint
// identical, on every workload and seed, between its parent and itself.
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
)

// metricDef names one reported metric. The lists must match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"cpu_ref_s", "s"}, {"setup_s", "s"}, {"peak_rss_mib", "MiB"},
}

var perLayer = []metricDef{
	{"sim.self_ns_per_item", "ns"}, {"sim.events_per_item", "count"}, {"sim.run_ns_per_event", "ns"},
	{"coherence.self_ns_per_item", "ns"}, {"coherence.remote_read_per_item", "count"},
	{"coherence.remote_rfo_per_item", "count"}, {"coherence.writebacks_per_item", "count"},
	{"coherence.stall_ns_per_item", "ns"},
	{"interconn.self_ns_per_item", "ns"}, {"interconn.msgs_per_item", "count"}, {"interconn.wire_bytes_per_item", "B"},
	{"ring.self_ns_per_item", "ns"},
	{"device.self_ns_per_item", "ns"}, {"device.pkts_per_nic_step", "ratio"},
	{"bufpool.self_ns_per_item", "ns"},
	{"loopback.self_ns_per_item", "ns"}, {"loopback.sim_mpps", "Mpps"},
	{"loopback.sim_p50_ns", "ns"}, {"loopback.sim_p99_ns", "ns"},
	{"pcie.self_ns_per_item", "ns"}, {"pcie.dma_ops_per_item", "count"}, {"pcie.wc_stalls_per_item", "count"},
	{"kvstore.self_ns_per_item", "ns"}, {"kvstore.sim_mops", "Mops"}, {"traffic.self_ns_per_item", "ns"},
	{"shard.self_ns_per_item", "ns"}, {"shard.events_per_item", "count"},
	{"shard.cpu_per_wall", "ratio"}, {"shard.parallel_eff", "ratio"},
	{"fabric.self_ns_per_item", "ns"}, {"fabric.forwarded", "count"}, {"fabric.drops", "count"},
	{"fabric.wire_bytes_per_item", "B"},
	{"cluster.self_ns_per_item", "ns"}, {"cluster.rpcs_done", "count"}, {"cluster.flow_delivered", "count"},
	{"cluster.sim_p99_ns", "ns"}, {"cluster.flow_p99_ns", "ns"},
	{"other.self_ns_per_item", "ns"}, {"runtime.self_ns_per_item", "ns"},
	{"go.allocs_per_item", "count"}, {"go.alloc_bytes_per_item", "B"},
	{"go.gc_cpu_frac", "ratio"}, {"go.gc_cycles", "count"},
	{"span.setup_s", "s"}, {"span.run_s", "s"}, {"span.point_ms_p50", "ms"}, {"span.point_ms_hi", "ms"},
	{"span.calibration_us", "us"}, {"trace.overhead_frac", "ratio"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
	verify   bool
}

var errUsage = errors.New("usage")

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseArgs(args, stderr)
	if err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintf(stderr, "ccperf: %v\n", err)
		}
		fmt.Fprintf(stderr, "valid workloads: %s\n", workloadNames())
		return 2
	}
	return execRun(opt, stdout, stderr)
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var opt options
	fs := flag.NewFlagSet("ccperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.workload, "workload", "", "workload `name` to run")
	fs.Int64Var(&opt.seed, "seed", 1, "seed the workload's inputs are derived from")
	fs.Float64Var(&opt.seconds, "seconds", 20, "measure for at least this many `seconds` (every point runs at least once)")
	trace := fs.Int("trace", 0, "1 adds a CPU-profiled run and prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&opt.spans, "spans", "", "write the recorded spans as JSON to `file` at exit")
	fs.BoolVar(&opt.verify, "verify", false, "run each workload (or -workload) twice, fabric-mix at 1 and 2 workers, and fail on any fingerprint mismatch")
	if err := fs.Parse(args); err != nil {
		return opt, errUsage
	}
	switch {
	case fs.NArg() > 0:
		return opt, fmt.Errorf("unexpected arguments %q", fs.Args())
	case *trace != 0 && *trace != 1:
		return opt, fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	case opt.workload == "" && !opt.verify:
		return opt, errors.New("-workload is required")
	case opt.workload != "" && workloadByName(opt.workload) == nil:
		return opt, fmt.Errorf("unknown workload %q", opt.workload)
	case opt.seconds <= 0 && !opt.verify:
		return opt, fmt.Errorf("-seconds must be positive, not %v", opt.seconds)
	}
	opt.trace = *trace == 1
	return opt, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// workersFor returns the shard-engine worker budget that verify and the
// traced run's parallel phase give a workload's points. Timed runs use one
// worker: on a machine with two vCPUs, two workers and the Go runtime's
// spinning threads contend for them, which made fabric-mix's CPU time spread
// twice as wide as its wall time, and two workers run it no faster than one.
func workersFor(w *workload) int {
	if w.name == "fabric-mix" {
		return min(2, runtime.GOMAXPROCS(0))
	}
	return 1
}

func execRun(opt options, stdout, stderr io.Writer) int {
	// As in ccbench: the simulations allocate fast and retain little, and the
	// default GOGC spends much of the run re-scanning stable page tables.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	rec := newRecorder()
	code := 0
	if opt.verify {
		code = verify(opt, rec, stdout)
	} else if err := measure(opt, rec, stdout); err != nil {
		fmt.Fprintf(stderr, "ccperf: %v\n", err)
		return 1
	}
	if opt.spans != "" {
		if err := writeSpans(opt.spans, rec.spans); err != nil {
			fmt.Fprintf(stderr, "ccperf: %v\n", err)
			return 1
		}
	}
	return code
}

// verify runs each selected workload twice and compares fingerprints; the
// second fabric-mix run uses one worker.
func verify(opt options, rec *recorder, stdout io.Writer) int {
	code := 0
	for i := range workloads {
		w := &workloads[i]
		if opt.workload != "" && opt.workload != w.name {
			continue
		}
		pts := w.points(opt.seed, false)
		wa, wb := workersFor(w), workersFor(w)
		if wa > 1 {
			wb = 1
		}
		a := runPhase(rec, w.name+"/verify-a", pts, wa, 0)
		b := runPhase(rec, w.name+"/verify-b", pts, wb, 0)
		fa, fb := a.fingerprint(pts), b.fingerprint(pts)
		status := "ok"
		if fa != fb {
			status, code = "FINGERPRINT MISMATCH", 1
		}
		for _, ph := range []*phase{&a, &b} {
			if _, failed := ph.counts(); failed > 0 {
				status, code = "FAILED POINTS", 1
				printFailures(stdout, ph)
			}
		}
		fmt.Fprintf(stdout, "verify %-14s seed %d: %s (%d workers) %s (%d workers): %s\n",
			w.name, opt.seed, fa, wa, fb, wb, status)
	}
	return code
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload and prints its metrics; it returns an error,
// without printing a result, only when the trace cannot be taken.
func measure(opt options, rec *recorder, stdout io.Writer) error {
	w := workloadByName(opt.workload)
	pts := w.points(opt.seed, false)
	workers := workersFor(w)

	// A traced run splits its time evenly between an untraced phase, the
	// profiled phase and, for sharded workloads, a phase at several workers.
	seconds := opt.seconds
	if opt.trace && workers > 1 {
		seconds /= 3
	} else if opt.trace {
		seconds /= 2
	}
	base := runPhase(rec, w.name, pts, 1, seconds)
	phases := []*phase{&base}
	var lm *layerMetrics
	if opt.trace {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("start CPU profile: %w", err)
		}
		traced := runPhase(rec, w.name+"/traced", pts, 1, seconds)
		pprof.StopCPUProfile()
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return err
		}
		phases = append(phases, &traced)
		var parallel *phase
		if workers > 1 {
			par := runPhase(rec, fmt.Sprintf("%s/%d-workers", w.name, workers), pts, workers, seconds)
			parallel = &par
			phases = append(phases, &par)
		}
		lm = computeLayers(&base, &traced, parallel, samples, workers)
	}

	attempted, failed := 0, 0
	for _, ph := range phases {
		a, f := ph.counts()
		attempted, failed = attempted+a, failed+f
		printFailures(stdout, ph)
	}
	fp := base.fingerprint(pts)
	repeats := true
	for _, ph := range phases[1:] {
		if f := ph.fingerprint(pts); f != fp {
			fmt.Fprintf(stdout, "FAILED: fingerprint %s of a later phase differs from %s\n", f, fp)
			repeats = false
		}
	}

	runs, _ := base.counts()
	fmt.Fprintf(stdout, "workload %s seed %d: %d points, %d runs in %d passes, %.2f s\n",
		w.name, opt.seed, len(pts), runs, base.passes, base.wall)
	fmt.Fprintf(stdout, "why: %s\n", w.why)
	fmt.Fprintln(stdout, "generator lateness: n/a (simulated generators run in virtual time)")
	e2e := map[string]float64{
		"cpu_ref_s":    base.sumQuantile(0.25, func(s sample) float64 { return s.atRef(s.cpu) }),
		"setup_s":      base.sumQuantile(0.5, func(s sample) float64 { return s.atRef(s.setup) }),
		"peak_rss_mib": base.rss,
	}
	for _, d := range endToEnd {
		fmt.Fprintf(stdout, "%-32s %14.6f %s\n", d.name, e2e[d.name], d.unit)
	}
	fmt.Fprintf(stdout, "%-32s %14.6f s (not bounded: includes time the host took the vCPU away)\n", "wall_ref_s",
		base.sumQuantile(0.25, func(s sample) float64 { return s.atRef(s.span()) }))
	fmt.Fprintf(stdout, "%-32s %14.6f s (raw, fastest pass; cpu %.6f s, setup %.6f s)\n", "wall_s",
		base.sumBest(sample.span), base.sumBest(func(s sample) float64 { return s.cpu }),
		base.sumBest(func(s sample) float64 { return s.setup }))
	fmt.Fprintf(stdout, "%-32s %14.1f us (median of %d; reference %.1f us)\n", "calibration",
		median(base.cals)*1e6, len(base.cals), calRefSeconds*1e6)
	fmt.Fprintf(stdout, "%-32s %14.6f (%d failed of %d attempted)\n",
		"fail_frac", float64(failed)/float64(max(attempted, 1)), failed, attempted)

	res := result{Correct: failed == 0 && repeats, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, e2e
	if lm != nil {
		defs, vals = perLayer, lm.values
		for _, d := range perLayer {
			fmt.Fprintf(stdout, "%-32s %14.6f %s%s\n", d.name, lm.values[d.name], d.unit, lm.notes[d.name])
		}
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	fmt.Fprintf(stdout, "fingerprint %s\n", fp)
	fmt.Fprintf(stdout, "correct %v\n", res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("marshal result: %w", err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

func printFailures(stdout io.Writer, ph *phase) {
	for _, res := range ph.points {
		for _, f := range res.failures {
			fmt.Fprintf(stdout, "FAILED: %s\n", f)
		}
	}
}

func writeSpans(path string, spans []span) error {
	buf, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return fmt.Errorf("marshal spans: %w", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
