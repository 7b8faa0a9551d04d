// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.2 microbenchmarks and §5). Each experiment builds fresh
// testbeds, runs the workload the paper describes, and returns printable
// series/tables shaped like the paper's plots. EXPERIMENTS.md records the
// expected shapes and the measured outputs side by side.
package experiments

import (
	"fmt"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"

	"ccnic"
	"ccnic/internal/check"
	"ccnic/internal/cluster"
	"ccnic/internal/coherence"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
	"ccnic/internal/stats"
)

// Options is one run's settings, carried to every simulation an experiment
// builds. Quick mode shrinks core counts, sweep points, and measurement
// windows so the full suite runs in seconds (used by tests and benchmarks);
// full mode reproduces the paper's axes. Faults, Protocol and Check reach
// the model only through the three builders below (testbed, cluster,
// system), the only places this package constructs a simulation.
type Options struct {
	Quick bool
	// FabricPorts caps fabric-incast's switch fan-in sweep (0 = its own
	// default); no other experiment reads it. Set by ccbench -ports;
	// refused on golden/hash runs, which pin the default geometry.
	FabricPorts int
	// Faults arms a fault plan on every testbed and cluster whose point
	// leaves its own plan nil (ccbench -faults). Bare systems ignore it.
	Faults *ccnic.FaultPlan
	// Protocol selects the coherence backend, "UPI" or "CXL", of every
	// testbed whose point leaves it empty (ccbench -protocol; "" is UPI).
	// Bare systems and clusters ignore it.
	Protocol string
	// Check attaches the online invariant engine (internal/check) to every
	// simulation (ccbench -check).
	Check bool
}

// testbed builds a fresh testbed from cfg (one per measurement: a run
// consumes the kernel), filling in the run's fault plan and protocol where
// cfg leaves them unset.
func (o Options) testbed(cfg ccnic.Config) *ccnic.Testbed {
	if cfg.Faults == nil {
		cfg.Faults = o.Faults
	}
	if cfg.Protocol == "" {
		cfg.Protocol = o.Protocol
	}
	tb := ccnic.NewTestbed(cfg)
	if o.Check {
		check.Attach(tb.Sys)
	}
	return tb
}

// cluster builds a cluster from cfg, filling in the run's fault plan where
// cfg leaves it nil, runs it to until, and checks its delivery ledger —
// switch conservation always, the transport's RPC ledger where it is armed
// — panicking with the experiment's id on any failure. The caller reads
// the cluster and closes it.
func (o Options) cluster(id string, cfg cluster.Config, until sim.Time) *cluster.Cluster {
	if cfg.Faults == nil {
		cfg.Faults = o.Faults
	}
	c := cluster.New(cfg)
	if o.Check {
		for _, sw := range c.Switches {
			check.AttachFabric(sw)
		}
	}
	err := c.Run(until)
	if err == nil {
		err = c.CheckDelivery()
	}
	if err != nil {
		c.Close()
		panic(fmt.Sprintf("%s: %v", id, err))
	}
	return c
}

// system builds a bare UPI coherent system on k, for the simulations with
// no NIC testbed: the microbenchmarks, ext-dsa and the wedged-TX rows.
func (o Options) system(k *sim.Kernel, plat *platform.Platform) *coherence.System {
	s := coherence.NewSystem(k, plat)
	if o.Check {
		check.Attach(s)
	}
	return s
}

// SeriesGroup is one panel of a figure.
type SeriesGroup struct {
	Name   string
	Series []*stats.Series
}

// Report is an experiment's regenerated output.
type Report struct {
	ID     string
	Title  string
	Groups []SeriesGroup
	Tables []*stats.Table
	Notes  []string
}

// Format renders the report as text: a chart of each series group's shape
// followed by the exact values.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, g := range r.Groups {
		b.WriteString("\n")
		b.WriteString(stats.Plot(g.Name, 56, 12, g.Series...))
		b.WriteString("\n")
		b.WriteString(stats.FormatSeries(g.Name, g.Series...))
	}
	for _, t := range r.Tables {
		b.WriteString("\n")
		b.WriteString(t.Format())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\nnote: %s\n", n)
	}
	return b.String()
}

// Experiment regenerates one paper table or figure.
type Experiment struct {
	ID    string
	Title string
	// Paper summarizes the published result this experiment targets.
	Paper string
	run   func(Options) *Report
}

// slots bounds the simulations running at once across the process: an
// experiment's own work and every point parallel starts each hold one, so
// the experiments a caller starts together and the points they fan out
// share GOMAXPROCS CPUs between them.
var slots = make(chan struct{}, runtime.GOMAXPROCS(0))

func acquire() { slots <- struct{}{} }
func release() { <-slots }

// Run regenerates the experiment's report. Its own work holds one slot;
// callers may run any number of experiments concurrently.
func (e *Experiment) Run(opt Options) *Report {
	acquire()
	defer release()
	return e.run(opt)
}

var registry = map[string]*Experiment{}

func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment sorted by ID.
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	//ccnic:nondet-ok sorted-collect: the slice is fully ordered by ID below
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return idKey(out[i].ID) < idKey(out[j].ID) })
	return out
}

// idKey orders fig2 < fig3 < ... < fig21 < table1 < table2.
func idKey(id string) string {
	if strings.HasPrefix(id, "fig") {
		return fmt.Sprintf("a%03s", id[3:])
	}
	return "z" + id
}

// ByID returns the experiment with the given ID, or nil.
func ByID(id string) *Experiment { return registry[id] }

// Section renders an experiment's complete output section exactly as ccbench
// prints it (minus the timing trailer, which varies run to run). The golden
// regression and the determinism test hash this rendering, so it must stay
// byte-stable for a given model.
func Section(e *Experiment, r *Report) string {
	return r.Format() + "\npaper: " + e.Paper + "\n"
}

// timingLine matches ccbench's per-experiment trailer, which carries
// wall-clock numbers and must not participate in golden comparisons. Only
// the prefix matches: older transcripts append an event-rate suffix.
var timingLine = regexp.MustCompile(`^\[\S+ completed in `)

// Normalize strips run-varying lines (timing trailers, driver EXIT markers)
// and trailing blank lines so sections compare bit-for-bit on model output
// alone. ccbench's -golden / -hashes modes and the repository's determinism
// test share this definition; a hash of Normalize(Section(e, r)) is the
// canonical fingerprint of an experiment's output.
func Normalize(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if timingLine.MatchString(line) || strings.HasPrefix(line, "EXIT=") {
			continue
		}
		keep = append(keep, line)
	}
	for len(keep) > 0 && strings.TrimSpace(keep[len(keep)-1]) == "" {
		keep = keep[:len(keep)-1]
	}
	return strings.Join(keep, "\n") + "\n"
}

// parallel runs fn(0..n-1) concurrently, each index in a slot of its own.
// The caller lends its slot to the points while it waits, so a parallel
// nested inside a point neither oversubscribes the pool nor deadlocks on
// it. Each index builds its own simulation kernel, so points are
// independent and results deterministic.
func parallel(n int, fn func(i int)) {
	release()
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		//ccnic:nondet-ok deterministic fan-out: each point builds its own kernel
		go func() {
			defer wg.Done()
			acquire()
			defer release()
			fn(i)
		}()
	}
	wg.Wait()
	acquire()
}
