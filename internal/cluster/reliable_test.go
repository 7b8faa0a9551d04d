package cluster

import (
	"fmt"
	"strings"
	"testing"

	"ccnic/internal/fabric"
	"ccnic/internal/fault"
	"ccnic/internal/sim"
)

// reliableFingerprint runs an armed-transport cluster and renders the report
// (recovery counters included) plus the delivery-ledger verdict.
func reliableFingerprint(t *testing.T, cfg Config, until sim.Time) string {
	t.Helper()
	c := New(cfg)
	if err := c.Run(until); err != nil {
		t.Fatalf("run (shards=%d workers=%d): %v", cfg.Shards, cfg.Workers, err)
	}
	if err := c.CheckDelivery(); err != nil {
		t.Fatalf("delivery ledger (shards=%d workers=%d): %v", cfg.Shards, cfg.Workers, err)
	}
	r := c.Report()
	r.Shards = 0
	return r.String()
}

// TestReliableHealthySteadyState: with the transport armed on a healthy
// redundant topology, probes all return, nothing fails over, and the
// delivery ledger balances.
func TestReliableHealthySteadyState(t *testing.T) {
	c := New(Config{Hosts: 4, Shards: 4, Reliable: true, Switches: 2, Window: 8})
	if err := c.Run(200 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckDelivery(); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	if r.Done == 0 {
		t.Fatalf("no completions:\n%s", r)
	}
	if r.ProbesSent == 0 {
		t.Fatal("redundant topology sent no health probes")
	}
	if r.ProbesMissed != 0 {
		t.Fatalf("healthy fabric missed %d probes", r.ProbesMissed)
	}
	if r.Failovers != 0 || r.Failbacks != 0 {
		t.Fatalf("healthy fabric failed over: %d failovers, %d failbacks", r.Failovers, r.Failbacks)
	}
	if r.Retransmits != 0 || r.Exhausted != 0 {
		t.Fatalf("healthy fabric retransmitted: %d retx, %d exhausted", r.Retransmits, r.Exhausted)
	}
}

// TestReliableNoSilentLoss is the tentpole invariant: with in-fabric faults
// armed (port flaps, corruption, blackholes) on the redundant topology,
// packets really are lost inside the switches — and every one of them is
// either retransmitted to completion or retired as Exhausted. The ledger
// (sent = done + exhausted + pending) is enforced by CheckDelivery inside
// the fingerprint helper.
func TestReliableNoSilentLoss(t *testing.T) {
	plan, err := fault.ParsePlan("seed=11,portflap=0.02,corrupt=0.02,blackhole=0.02")
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{Hosts: 4, Shards: 4, Reliable: true, Switches: 2, Window: 8, Faults: plan})
	if err := c.Run(400 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckDelivery(); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	if r.FaultDrops == 0 {
		t.Fatal("armed fabric plan dropped nothing — the test exercises no loss path")
	}
	if r.Retransmits == 0 {
		t.Fatal("losses happened but nothing was retransmitted")
	}
	if r.Done == 0 {
		t.Fatalf("no completions under faults:\n%s", r)
	}
	// The report surfaces the recovery counters once they are nonzero.
	if !strings.Contains(r.String(), "recovery:") {
		t.Fatalf("report hides recovery counters:\n%s", r)
	}
}

// TestReliablePortflapInvariance: the armed transport — retransmissions,
// probes, failover and all — is bit-identical across every host partition
// and worker count, like the rest of the model.
func TestReliablePortflapInvariance(t *testing.T) {
	plan, err := fault.ParsePlan("seed=13,portflap=0.03,corrupt=0.01")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(shards, workers int) Config {
		return Config{Hosts: 4, Shards: shards, Workers: workers,
			Reliable: true, Switches: 2, Window: 8, Faults: plan}
	}
	until := 300 * sim.Microsecond
	if testing.Short() {
		until = 100 * sim.Microsecond
	}
	ref := reliableFingerprint(t, mk(1, 1), until)
	for _, shards := range []int{2, 4} {
		for _, workers := range []int{1, 4} {
			if got := reliableFingerprint(t, mk(shards, workers), until); got != ref {
				t.Fatalf("shards=%d workers=%d diverges:\n--- ref\n%s--- got\n%s",
					shards, workers, ref, got)
			}
		}
	}
	// Run-twice: the same armed configuration reproduces itself.
	if again := reliableFingerprint(t, mk(4, 4), until); again != ref {
		t.Fatalf("run-twice divergence:\n--- first\n%s--- second\n%s", ref, again)
	}
}

// TestReliableUnarmedUnchanged: Config.Reliable defaults off, and an
// unarmed cluster's fingerprint is byte-for-byte what the pre-transport
// model produced (no probes, no recovery lines, no behavioural drift).
func TestReliableUnarmedUnchanged(t *testing.T) {
	got := fingerprint(t, Config{Hosts: 4, Shards: 4, Workers: 4})
	if strings.Contains(got, "recovery:") {
		t.Fatalf("unarmed run rendered recovery counters:\n%s", got)
	}
	if strings.Contains(got, "probe") {
		t.Fatalf("unarmed run mentions probes:\n%s", got)
	}
}

// TestFailoverAndFailback: a scripted outage on switch 0's port 0 makes the
// affected node's probes miss (K-of-N) and other nodes' data paths strike
// out — traffic fails over to switch 1, completions continue, and once the
// port heals and a clean probe window passes, routes fail back to the
// primary.
func TestFailoverAndFailback(t *testing.T) {
	c := New(Config{
		Hosts: 4, Shards: 4, Reliable: true, Switches: 2, Window: 8,
		RTO: 10 * sim.Microsecond,
		Outages: []ScriptedOutage{
			{Switch: 0, Port: 0, From: 50 * sim.Microsecond, To: 150 * sim.Microsecond},
		},
	})
	if err := c.Run(300 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckDelivery(); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	if r.ProbesMissed == 0 {
		t.Fatal("outage missed no probes")
	}
	if r.Failovers == 0 {
		t.Fatal("no failovers despite a 100us primary-switch outage")
	}
	if r.Failbacks == 0 {
		t.Fatal("no failbacks after the outage healed")
	}
	// The secondary switch actually carried traffic.
	if fwd := c.Switches[1].Stats().Forwarded(); fwd == 0 {
		t.Fatal("secondary switch forwarded nothing during failover")
	}
	// Node 0 kept completing RPCs: failover routed around its dead primary
	// attach. A generous floor — without failover its window (8) wedges for
	// 100us out of 300.
	if c.Nodes[0].Done == 0 {
		t.Fatal("node 0 completed nothing")
	}
	if r.Exhausted > r.Done/10 {
		t.Fatalf("failover leaked too many RPCs into exhaustion: %d exhausted vs %d done", r.Exhausted, r.Done)
	}
}

// TestBoundedRecovery is the bounded-recovery property: with redundant
// switches and the transport armed, a mid-run outage may hurt the phase it
// occurs in, but the post-recovery phase's loaded p99 must return to within
// a fixed factor of the pre-fault phase.
func TestBoundedRecovery(t *testing.T) {
	const factor = 3
	marks := []sim.Time{100 * sim.Microsecond, 180 * sim.Microsecond, 260 * sim.Microsecond}
	c := New(Config{
		Hosts: 4, Shards: 4, Reliable: true, Switches: 2, Window: 8,
		RTO: 10 * sim.Microsecond,
		Outages: []ScriptedOutage{
			{Switch: 0, Port: 0, From: 100 * sim.Microsecond, To: 180 * sim.Microsecond},
		},
		PhaseMarks: marks,
	})
	until := 400 * sim.Microsecond
	if err := c.Run(until); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckDelivery(); err != nil {
		t.Fatal(err)
	}
	phases := c.PhaseLatencies(until)
	if len(phases) != 4 {
		t.Fatalf("want 4 phases, got %d", len(phases))
	}
	for i := range phases {
		if phases[i].Count() == 0 {
			t.Fatalf("phase %d recorded nothing — the cluster stalled", i)
		}
	}
	pre, post := phases[0].Percentile(0.99), phases[3].Percentile(0.99)
	t.Logf("phase p99s: pre=%v during=%v recover=%v post=%v",
		pre, phases[1].Percentile(0.99), phases[2].Percentile(0.99), post)
	if post > factor*pre {
		t.Fatalf("recovery unbounded: post-heal p99 %v > %d x pre-fault p99 %v", post, factor, pre)
	}
}

// degradedCfg builds the single-switch degraded-mode scenario: an incast
// toward host 0, whose port suffers a scripted outage, while host 1 also
// runs one bulk-class and one latency-class flow toward the healthy host 2.
// Degraded mode is a node-level verdict, so host 1's transport distress
// (timeouts toward host 0) must shed its bulk flow — and only its bulk flow
// — even though the flows' own path is fine.
func degradedCfg(withOutage bool) Config {
	cfg := Config{
		Hosts: 3, Shards: 3, Reliable: true, Window: 8, ReqSize: 512,
		Pattern: PatternIncast,
		RTO:     8 * sim.Microsecond, RetryBudget: 2,
		DegradedWindow: 30 * sim.Microsecond,
		Flows: []FlowSpec{
			{Name: "bulk", Srcs: []int{1}, Dst: 2, Class: fabric.ClassBulk,
				Bytes: 4096, MeanGap: 2 * sim.Microsecond, Seed: 21},
			{Name: "lat", Srcs: []int{1}, Dst: 2, Class: fabric.ClassRPC,
				Bytes: 512, MeanGap: 2 * sim.Microsecond, Seed: 22},
		},
	}
	if withOutage {
		cfg.Outages = []ScriptedOutage{
			{Switch: 0, Port: 0, From: 60 * sim.Microsecond, To: 200 * sim.Microsecond},
		}
	}
	return cfg
}

// TestDegradedModeShedsBulkOnly: on a single-switch topology (nowhere to
// fail over to), transport distress engages degraded mode — the bulk-class
// flow is shed at its generator while the latency-class flow keeps its full
// delivery rate, and the ledger still balances.
func TestDegradedModeShedsBulkOnly(t *testing.T) {
	run := func(withOutage bool) (Report, [2]int64) {
		c := New(degradedCfg(withOutage))
		if err := c.Run(300 * sim.Microsecond); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckDelivery(); err != nil {
			t.Fatal(err)
		}
		return c.Report(), [2]int64{c.flows[0].delivered, c.flows[1].delivered}
	}
	healthy, hDelivered := run(false)
	faulted, fDelivered := run(true)
	if healthy.Shed != 0 || healthy.Degraded != 0 {
		t.Fatalf("healthy run shed traffic: %d shed, %d degraded entries", healthy.Shed, healthy.Degraded)
	}
	if faulted.Timeouts == 0 || faulted.Degraded == 0 {
		t.Fatalf("outage caused no distress: %d timeouts, %d degraded entries",
			faulted.Timeouts, faulted.Degraded)
	}
	if faulted.Shed == 0 {
		t.Fatal("degraded mode shed nothing")
	}
	// The bulk flow lost real deliveries to shedding; the latency-class flow
	// kept (essentially) its full rate — the SLO policy in one contrast.
	if fDelivered[0] >= hDelivered[0] {
		t.Fatalf("bulk flow unshed: %d delivered with outage vs %d healthy", fDelivered[0], hDelivered[0])
	}
	if fDelivered[1] < hDelivered[1]*95/100 {
		t.Fatalf("latency-class flow degraded: %d delivered with outage vs %d healthy",
			fDelivered[1], hDelivered[1])
	}
}

// TestTenantBreaker: tracked-flow timeouts toward a dead destination trip
// per-tenant circuit breakers, shedding at the generator until the hold
// expires.
func TestTenantBreaker(t *testing.T) {
	c := New(Config{
		Hosts: 3, Shards: 3, Reliable: true, Window: 4, ReqSize: 512,
		RTO: 8 * sim.Microsecond,
		Flows: []FlowSpec{{
			Name: "t", Srcs: []int{1}, Dst: 0, Class: fabric.ClassRPC,
			Bytes: 512, MeanGap: 1 * sim.Microsecond, Tenants: 8,
			TrackEvery: 2, Seed: 31,
		}},
		Outages: []ScriptedOutage{
			{Switch: 0, Port: 0, From: 40 * sim.Microsecond, To: 160 * sim.Microsecond},
		},
	})
	if err := c.Run(250 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckDelivery(); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	if r.FlowTimeouts == 0 {
		t.Fatal("no tracked-flow timeouts despite a dead destination")
	}
	if r.BreakerTrips == 0 {
		t.Fatal("no circuit breakers tripped")
	}
	if r.Shed == 0 {
		t.Fatal("open breakers shed nothing")
	}
}

// TestReportSumsEverySwitch: on the redundant fabric the report's switch
// counters and its fabric line cover both switches, not switch 0 alone.
func TestReportSumsEverySwitch(t *testing.T) {
	c := New(Config{Hosts: 4, Reliable: true, Switches: 2})
	defer c.Close()
	if err := c.Run(60 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	var fwd, drops int64
	for _, sw := range c.Switches {
		st := sw.Stats()
		fwd += st.Forwarded()
		drops += st.Drops()
	}
	if c.Switches[1].Stats().Forwarded() == 0 {
		t.Fatal("switch 1 forwarded nothing: the test needs traffic on both switches")
	}
	r := c.Report()
	if r.Forwarded != fwd || r.Dropped != drops {
		t.Errorf("Forwarded = %d, Dropped = %d, want %d, %d", r.Forwarded, r.Dropped, fwd, drops)
	}
	if want := fmt.Sprintf("fabric: %d pkts forwarded", fwd); !strings.HasPrefix(r.FabricSummary, want) {
		t.Errorf("fabric line %q, want prefix %q", r.FabricSummary, want)
	}
}
