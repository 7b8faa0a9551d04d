package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ccnic/internal/fault"
	"ccnic/internal/sim"
)

// fingerprint runs a cluster to 300µs and renders everything observable:
// the aggregate report plus per-node counters and latency percentiles.
func fingerprint(t *testing.T, cfg Config) string {
	t.Helper()
	until := 300 * sim.Microsecond
	if testing.Short() {
		until = 80 * sim.Microsecond // keeps the -race CI shard quick
	}
	c := New(cfg)
	if err := c.Run(until); err != nil {
		t.Fatalf("run (shards=%d workers=%d): %v", cfg.Shards, cfg.Workers, err)
	}
	var b strings.Builder
	r := c.Report()
	// Shard count is configuration, not behaviour: mask it so fingerprints
	// compare across partitions.
	r.Shards = 0
	b.WriteString(r.String())
	// Per-node counters and percentiles are model results and must be
	// partition-invariant. Kernel event counts are *not* in the
	// fingerprint: they are runtime mechanics (nodes share a kernel under
	// coarse partitions, and fabric messages still queued at the cutoff
	// have not spawned their delivery process yet).
	for _, n := range c.Nodes {
		fmt.Fprintf(&b, "n%d sent=%d served=%d done=%d p50=%v p99=%v\n",
			n.id, n.Sent, n.Served, n.Done, n.Lat.Median(), n.Lat.Percentile(0.99))
	}
	return b.String()
}

// TestRunTwiceDeterminism: same configuration, bit-identical fingerprint.
func TestRunTwiceDeterminism(t *testing.T) {
	cfg := Config{Hosts: 4, Shards: 4, Workers: 4}
	a := fingerprint(t, cfg)
	if b := fingerprint(t, cfg); a != b {
		t.Fatalf("run-twice fingerprints diverge:\n--- first\n%s--- second\n%s", a, b)
	}
	if !strings.Contains(a, "RPCs done") || strings.Contains(a, " 0 RPCs done") {
		t.Fatalf("cluster made no progress:\n%s", a)
	}
}

// TestShardCountInvariance: the same 4-host cluster cut into 1, 2, and 4
// shards must produce bit-identical results (the tentpole's core guarantee:
// multi-shard matches single-shard exactly), at the default worker budget
// (0) and at explicit ones.
func TestShardCountInvariance(t *testing.T) {
	ref := fingerprint(t, Config{Hosts: 4, Shards: 1, Workers: 1})
	for _, shards := range []int{2, 4} {
		for _, workers := range []int{0, 1, 2, 4} {
			got := fingerprint(t, Config{Hosts: 4, Shards: shards, Workers: workers})
			if got != ref {
				t.Fatalf("shards=%d workers=%d diverges from single-shard run:\n--- single\n%s--- got\n%s",
					shards, workers, ref, got)
			}
		}
	}
}

// TestShardCountInvarianceWithFaults: each node's fault draws are keyed by
// its stable node id (its injector's site), so fault schedules, and
// therefore results, survive re-partitioning.
func TestShardCountInvarianceWithFaults(t *testing.T) {
	plan, err := fault.ParsePlan("seed=7,stall=0.02,dma=0.02,link=0.02")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(shards, workers int) Config {
		return Config{Hosts: 4, Shards: shards, Workers: workers, Faults: plan}
	}
	ref := fingerprint(t, mk(1, 1))
	for _, shards := range []int{2, 4} {
		got := fingerprint(t, mk(shards, shards))
		if got != ref {
			t.Fatalf("fault-armed shards=%d diverges:\n--- single\n%s--- got\n%s", shards, ref, got)
		}
	}
	// The armed run must actually inject something, and must differ from
	// the fault-free run (faults perturb timing).
	clean := fingerprint(t, Config{Hosts: 4, Shards: 4})
	if clean == ref {
		t.Fatal("fault-armed fingerprint identical to fault-free run")
	}
	c := New(mk(4, 4))
	if err := c.Run(300 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	injected := c.FaultStats()
	if injected.Total() == 0 {
		t.Fatal("armed plan injected nothing")
	}
}

// TestNodeSitesIndependent: each node's injector is the plan at the
// node's own site, so two nodes draw different schedules, a node draws the
// same schedule however the cluster is partitioned, and an unarmed plan
// arms no node.
func TestNodeSitesIndependent(t *testing.T) {
	plan, err := fault.ParsePlan("seed=7,stall=0.5")
	if err != nil {
		t.Fatal(err)
	}
	stalls := func(cfg Config) [][]sim.Time {
		c := New(cfg)
		defer c.Close()
		out := make([][]sim.Time, len(c.Nodes))
		for i, n := range c.Nodes {
			for range 64 {
				out[i] = append(out[i], n.flt.PipelineStall())
			}
		}
		return out
	}
	one := stalls(Config{Hosts: 4, Shards: 1, Faults: plan})
	if slices.Equal(one[0], one[1]) {
		t.Fatalf("nodes 0 and 1 drew the same schedule %v", one[0])
	}
	four := stalls(Config{Hosts: 4, Shards: 4, Workers: 4, Faults: plan})
	for i := range one {
		if !slices.Equal(one[i], four[i]) {
			t.Errorf("node %d's schedule depends on the partition:\n 1 shard  %v\n 4 shards %v", i, one[i], four[i])
		}
	}
	c := New(Config{Hosts: 2, Faults: &fault.Plan{Seed: 3}})
	defer c.Close()
	for _, n := range c.Nodes {
		if n.flt != nil {
			t.Fatalf("unarmed plan armed node %d", n.id)
		}
	}
}

// TestClosedLoopWindow: in-flight requests never exceed the window, and the
// latency histogram is populated with sane end-to-end times (at least two
// fabric crossings).
func TestClosedLoopWindow(t *testing.T) {
	c := New(Config{Hosts: 2, Shards: 2, Window: 8})
	if err := c.Run(200 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		if n.inFlight < 0 || n.inFlight > 8 {
			t.Fatalf("node %d inFlight=%d outside [0,8]", n.id, n.inFlight)
		}
		if n.Done == 0 {
			t.Fatalf("node %d completed nothing", n.id)
		}
		if min := n.Lat.Min(); min < 2*c.Lookahead() {
			t.Fatalf("node %d min latency %v below two fabric crossings (%v)", n.id, min, 2*c.Lookahead())
		}
	}
}

// TestValidate: every topology or flow spec New refuses is rejected by
// Validate with an error (not a panic), New panics with the same message,
// and the defaults, the redundant reliable pair and well-formed flows pass.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string // "" = valid
	}{
		{"defaults", Config{}, ""},
		{"reliable pair", Config{Hosts: 4, Reliable: true, Switches: 2,
			Outages: []ScriptedOutage{{Switch: 1, Port: 2, To: 10 * sim.Microsecond}}}, ""},
		{"one host", Config{Hosts: 1}, "need at least 2 hosts"},
		{"negative hosts", Config{Hosts: -3}, "need at least 2 hosts"},
		{"three switches", Config{Reliable: true, Switches: 3}, "switches"},
		{"negative switches", Config{Switches: -1}, "switches"},
		{"pair without transport", Config{Switches: 2}, "need Reliable"},
		{"outage past default switch", Config{Outages: []ScriptedOutage{{Switch: 1}}}, "unknown switch 1"},
		{"negative outage switch", Config{Reliable: true, Switches: 2,
			Outages: []ScriptedOutage{{Switch: -1}}}, "unknown switch -1"},
		{"outage port past hosts", Config{Hosts: 4,
			Outages: []ScriptedOutage{{Port: 4, To: sim.Microsecond}}}, "switch 0: fabric: invalid scripted outage"},
		{"empty outage window", Config{Reliable: true, Switches: 2,
			Outages: []ScriptedOutage{{Switch: 1, Port: 1}}}, "switch 1: fabric: invalid scripted outage"},
		{"phase marks", Config{PhaseMarks: []sim.Time{50 * sim.Microsecond, 100 * sim.Microsecond}}, ""},
		{"phase marks out of order", Config{PhaseMarks: []sim.Time{100 * sim.Microsecond, 50 * sim.Microsecond}},
			"PhaseMarks must strictly increase"},
		{"repeated phase mark", Config{PhaseMarks: []sim.Time{sim.Microsecond, sim.Microsecond}},
			"PhaseMarks must strictly increase"},
		{"flows", Config{Flows: []FlowSpec{{Srcs: []int{1, 2, 3}, Dst: 0, Dist: "ads"}}}, ""},
		{"flow dst past default hosts", Config{Flows: []FlowSpec{{Name: "f", Srcs: []int{1}, Dst: 4}}},
			`flow "f" dst 4 out of range`},
		{"flow to itself", Config{Hosts: 2, Flows: []FlowSpec{{Name: "f", Srcs: []int{0}, Dst: 0}}},
			`flow "f" has invalid source 0`},
		{"flow source out of range", Config{Flows: []FlowSpec{{Name: "f", Srcs: []int{1, -1}}}},
			`flow "f" has invalid source -1`},
		{"flow size distribution", Config{Flows: []FlowSpec{{Name: "f", Srcs: []int{1}, Dist: "zipf"}}},
			`flow "f" has unknown size distribution "zipf"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want an error containing %q", err, tc.want)
			}
			defer func() {
				if r := recover(); r != err.Error() {
					t.Fatalf("New panicked with %v, want %q", r, err)
				}
			}()
			New(tc.cfg)
		})
	}
}
