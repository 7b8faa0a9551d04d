// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.2 microbenchmarks and §5). Each experiment declares the
// points it measures, the runner (points.go) measures each once per
// session, and the experiment shapes the readings into series and tables
// of typed cells like the paper's plots. EXPERIMENTS.md records the
// expected shapes and the measured outputs side by side.
package experiments

import (
	"fmt"
	"sort"
	"strings"

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
	// refused on golden runs, which pin the default geometry.
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

	// sess is the session the experiment runs in, and exp its ID (set by
	// Session.Run).
	sess *Session
	exp  string
}

// resolve fills in the run's fault plan and protocol where cfg leaves them
// unset, then every default ccnic.NewTestbed applies (Config.Resolved):
// the config a point is keyed and built by.
func (o Options) resolve(cfg ccnic.Config) ccnic.Config {
	if cfg.Faults == nil {
		cfg.Faults = o.Faults
	}
	if cfg.Protocol == "" {
		cfg.Protocol = o.Protocol
	}
	return cfg.Resolved()
}

// testbed builds a fresh testbed from cfg, a config resolve returned (one
// per measurement: a run consumes the kernel).
func (o Options) testbed(cfg ccnic.Config) *ccnic.Testbed {
	tb := ccnic.NewTestbed(cfg)
	if o.Check {
		check.Attach(tb.Sys)
	}
	return tb
}

// cluster builds a cluster from cfg, filling in the run's fault plan where
// cfg leaves it nil, runs it to until, and checks its delivery ledger —
// switch conservation always, the transport's RPC ledger where it is armed
// — panicking with the experiment's ID on any failure. The caller reads
// the cluster and closes it.
func (o Options) cluster(cfg cluster.Config, until sim.Time) *cluster.Cluster {
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
		panic(fmt.Sprintf("%s: %v", o.exp, err))
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

// scaled returns quick at -quick scale and full otherwise.
func scaled[T any](opt Options, full, quick T) T {
	if opt.Quick {
		return quick
	}
	return full
}

// Run regenerates the experiment's report in a session of its own.
func (e *Experiment) Run(opt Options) *Report { return NewSession().Run(e, opt) }

var registry = map[string]*Experiment{}

func register(es ...*Experiment) {
	for _, e := range es {
		if _, dup := registry[e.ID]; dup {
			panic("experiments: duplicate id " + e.ID)
		}
		registry[e.ID] = e
	}
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
// prints it to stdout, before the blank separator line. The goldens
// (Golden) pin this rendering, so it must stay byte-stable for a given
// model.
func Section(e *Experiment, r *Report) string {
	return r.Format() + "\npaper: " + e.Paper + "\n"
}
