package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
)

// TestWorkloadsRepeat runs every workload at its reduced size twice and
// requires identical fingerprints and no failed point; fabric-mix's second
// run uses two shard workers instead of one. A third run on another seed
// must change the fingerprint, so no workload ignores its seed.
func TestWorkloadsRepeat(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			pts, other := w.points(7, true), w.points(8, true)
			wb := 1
			if w.name == "fabric-mix" {
				wb = 2
			}
			a := runPhase(newRecorder(), "a", pts, 1, 0)
			b := runPhase(newRecorder(), "b", pts, wb, 0)
			c := runPhase(newRecorder(), "c", other, 1, 0)
			for _, ph := range []*phase{&a, &b, &c} {
				for _, res := range ph.points {
					for _, f := range res.failures {
						t.Errorf("failed point: %s", f)
					}
				}
			}
			fa := a.fingerprint(pts)
			if fb := b.fingerprint(pts); fa != fb {
				t.Errorf("fingerprint at 1 worker %s != at %d workers %s", fa, wb, fb)
			}
			if fa == c.fingerprint(other) {
				t.Errorf("seeds 7 and 8 give the same fingerprint %s", fa)
			}
		})
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-workload", "loopback-64", "-seed", "abc"},
		{"-workload", "loopback-64", "-trace", "2"},
		{"-seed", "1"},
	} {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code == 0 {
			t.Errorf("%q: exit code 0, want non-zero", args)
		}
		for _, w := range workloads {
			if !strings.Contains(errw.String(), w.name) {
				t.Errorf("%q: stderr does not list workload %s:\n%s", args, w.name, errw.String())
			}
		}
		if out.Len() != 0 {
			t.Errorf("%q: printed a result on bad input:\n%s", args, out.String())
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.coroswitch", "ccnic/internal/sim.(*Proc).park", "ccnic/internal/sim.(*Proc).Sleep",
			"ccnic/internal/loopback.Run.func1"}, "sim"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "ccnic/internal/coherence.(*Cache).slot",
			"ccnic/internal/coherence.(*Agent).Read"}, "coherence"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack",
			"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"ccnic/internal/sim/shard.(*Engine).Run", "ccnic/internal/cluster.(*Cluster).Run"}, "shard"},
		{[]string{"ccnic/internal/mem.Lines", "ccnic/internal/loopback.payloadLines"}, "other"},
		{[]string{"main.timedRun", "main.execute"}, "runtime"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
	if got := spanOf([]string{"runtime.mallocgc", "ccnic.NewTestbed", "main.timedSetup", "main.execute"}); got != "setup" {
		t.Errorf("spanOf(setup stack) = %s", got)
	}
	if got := spanOf([]string{"main.calibrate", "main.runPhase"}); got != "calibrate" {
		t.Errorf("spanOf(calibration stack) = %s", got)
	}
}

// TestReferenceSeconds checks the direction of the calibration scaling and
// the per-point quantile sum: on a machine running at half the reference
// speed, a point that took 2 s of CPU took 1 reference second.
func TestReferenceSeconds(t *testing.T) {
	ph := phase{points: []pointResult{
		{samples: []sample{{cpu: 2, cal: 2 * calRefSeconds}, {cpu: 4, cal: 2 * calRefSeconds}, {cpu: 3, cal: calRefSeconds}}},
		{samples: []sample{{cpu: 1, cal: calRefSeconds}}},
		{}, // never completed
	}}
	got := ph.sumQuantile(0.5, func(s sample) float64 { return s.atRef(s.cpu) })
	if want := 2.0 + 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("median reference CPU summed over points = %v, want %v", got, want)
	}
	if got, want := ph.sumBest(func(s sample) float64 { return s.cpu }), 2.0+1.0; got != want {
		t.Errorf("fastest raw CPU summed over points = %v, want %v", got, want)
	}
	if c := calibrate(); c <= 0 || c > 1 {
		t.Errorf("calibrate() = %v s", c)
	}
}

// TestTracedLayersSum runs a reduced traced workload and checks that the
// per-layer self times account for the run time: every run-span sample must
// land in a reported layer.
func TestTracedLayersSum(t *testing.T) {
	w := workloadByName("loopback-64")
	pts := w.points(1, true)
	base := runPhase(newRecorder(), "base", pts, 1, 0)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	traced := runPhase(newRecorder(), "traced", pts, 1, 0.5)
	pprof.StopCPUProfile()
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	lm := computeLayers(&base, &traced, nil, samples, 1)
	_, items := base.tally()
	var sum float64
	for _, l := range layers {
		sum += lm.values[l+".self_ns_per_item"]
	}
	want := lm.values["span.run_s"] * 1e9 / float64(items)
	if sum < 0.9*want || sum > 1.1*want {
		t.Errorf("per-layer self_ns_per_item sum %.0f, want within 10%% of span.run_s/items = %.0f", sum, want)
	}
	if lm.values["sim.self_ns_per_item"] == 0 || lm.values["coherence.self_ns_per_item"] == 0 {
		t.Errorf("no samples attributed to sim or coherence: %v", lm.values)
	}
	for _, d := range perLayer {
		if _, ok := lm.values[d.name]; !ok && !strings.HasPrefix(d.name, "shard.") &&
			!strings.HasPrefix(d.name, "fabric.") && !strings.HasPrefix(d.name, "cluster.") &&
			!strings.HasPrefix(d.name, "kvstore.sim") {
			t.Errorf("traced run did not compute %s", d.name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and metrics in step
// with the ones this command runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, command runs %d", len(b.Workloads), len(workloads))
	}
	for i := range min(len(b.Workloads), len(workloads)) {
		if j, w := b.Workloads[i], workloads[i]; j.Name != w.name || j.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %s (%q), command %s (%q)", i, j.Name, j.Why, w.name, w.why)
		}
	}
	for _, c := range []struct {
		json []def
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, command prints %d", len(c.json), len(c.code))
			continue
		}
		for i, d := range c.code {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], command %s [%s]", i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
