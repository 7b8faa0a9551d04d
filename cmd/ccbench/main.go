// Command ccbench regenerates the tables and figures of the CC-NIC paper's
// evaluation from the simulation models.
//
// Usage:
//
//	ccbench -list             list available experiments
//	ccbench fig11 fig17       run specific experiments
//	ccbench -all              run everything (minutes)
//	ccbench -quick fig12      run with reduced core counts and sweep points
//	ccbench -ports 16 fabric-incast
//	                          sweep fabric-incast's switch fan-in
//	ccbench -faults "seed=7,portflap=0.02" fabric-portflap failover-recovery
//	                          chaos-run the reliable-transport experiments
//	                          under injected in-fabric faults
//	ccbench -cpuprofile cpu.pprof -memprofile mem.pprof fig13
//	                          capture pprof profiles of the host hot path;
//	                          go tool pprof -tags cpu.pprof splits the CPU
//	                          by experiment (exp) and testbed point (point)
//
// Every selected experiment starts at once in one session, which measures
// each testbed point once however many experiments request it; GOMAXPROCS
// bounds the simulations running at a time (internal/experiments' slot
// pool), and sections print in registry order. Host cost (CPU, setup time,
// memory, per-layer attribution) is measured by cmd/ccperf; the trailer
// here reports each experiment's wall time from the start of the run, so
// it includes time spent waiting for slots and for shared points.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"ccnic"
	"ccnic/internal/check"
	"ccnic/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	all := flag.Bool("all", false, "run every experiment")
	quick := flag.Bool("quick", false, "reduced scale: fewer cores, points, and shorter windows")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to `file`")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to `file`")
	checkFlag := flag.Bool("check", false, "validate model invariants online in every simulation (internal/check)")
	goldenPath := flag.String("golden", "", "diff each experiment's output against golden `file`; exit 1 on any mismatch")
	hashesPath := flag.String("hashes", "", "write a JSON map of experiment id -> sha256 of normalized output to `file`")
	faultsSpec := flag.String("faults", "", "arm a deterministic fault `plan`, e.g. \"seed=7,dbdrop=0.01\" or \"all=0.005\" (see internal/fault)")
	protoSpec := flag.String("protocol", "", "coherence `protocol` backend for testbed experiments: upi (default) or cxl; the micro-benchmarks (fig2 fig3 fig7 fig8 fig9 table1) and ext-dsa have no NIC testbed and ignore it")
	portsFlag := flag.Int("ports", 0, "cap fabric-incast's switch fan-in sweep at `N` ports (0 = its default; no other experiment reads it; refused with -golden/-hashes)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ccbench [-quick] [-check] [-all | -list | <id>...]\n\n")
		fmt.Fprintf(os.Stderr, "Regenerates the CC-NIC paper's evaluation tables and figures.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n         paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	var ids []string
	if *all {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = flag.Args()
	}
	if len(ids) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	// Check every flag and resolve every ID before running anything: -all
	// takes minutes, and a typo'd ID should not cost the whole run.
	c, err := checkFlags(flagValues{
		ids: ids, quick: *quick, ports: *portsFlag,
		golden: *goldenPath, hashes: *hashesPath, faults: *faultsSpec, protocol: *protoSpec,
	})
	if err != nil {
		fatalf("ccbench: %v", err)
	}
	exps := c.exps
	var golden map[string]string
	if *goldenPath != "" {
		buf, err := os.ReadFile(*goldenPath)
		if err != nil {
			fatalf("ccbench: %v", err)
		}
		golden = splitGolden(string(buf))
	}
	var hashes map[string]string
	if *hashesPath != "" {
		hashes = make(map[string]string)
	}
	if c.plan != nil {
		fmt.Fprintf(os.Stderr, "ccbench: fault plan armed: %s\n", c.plan)
	}
	if c.proto != ccnic.ProtoUPI {
		fmt.Fprintf(os.Stderr, "ccbench: protocol backend: %v\n", c.proto)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("ccbench: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("ccbench: start cpu profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	opt := experiments.Options{Quick: *quick, FabricPorts: *portsFlag,
		Faults: c.plan, Protocol: c.proto.String(), Check: *checkFlag}
	goldenBad := 0

	// Sections print in registration order, so output, golden diffs and
	// hashes do not depend on scheduling: every point builds its own
	// kernel, and the timing trailer is normalized away.
	sess := experiments.NewSession()
	results := make([]chan expResult, len(exps))
	for i, e := range exps {
		results[i] = make(chan expResult, 1)
		go func() {
			start := time.Now()
			results[i] <- expResult{experiments.Section(e, sess.Run(e, opt)), time.Since(start)}
		}()
	}
	for i, e := range exps {
		r := <-results[i]
		fmt.Print(r.section)
		fmt.Printf("[%s completed in %s]\n\n", e.ID, r.wall.Round(time.Millisecond))
		norm := experiments.Normalize(r.section)
		if golden != nil {
			if want, ok := golden[e.ID]; !ok {
				fmt.Fprintf(os.Stderr, "ccbench: golden: no section for %s in %s\n", e.ID, *goldenPath)
				goldenBad++
			} else if norm != want {
				reportGoldenDiff(e.ID, want, norm)
				goldenBad++
			}
		}
		if hashes != nil {
			hashes[e.ID] = fmt.Sprintf("%x", sha256.Sum256([]byte(norm)))
		}
		if *checkFlag {
			// The memory budget: one line per experiment, and a named
			// failure once the process outgrows rssBudgetMiB. Experiments
			// run concurrently, so the checks are counted once, at the end.
			rss := peakRSSMiB()
			fmt.Fprintf(os.Stderr, "ccbench: %s: peak RSS %d MiB\n", e.ID, rss)
			if rss > rssBudgetMiB {
				fatalf("ccbench: %s: peak RSS %d MiB exceeds the %d MiB budget", e.ID, rss, rssBudgetMiB)
			}
		}
	}
	if *checkFlag {
		fmt.Fprintf(os.Stderr, "ccbench: invariants held: %d checks across %d simulations\n",
			check.TotalChecks(), check.TotalEngines())
	}
	if hashes != nil {
		buf, err := json.MarshalIndent(hashes, "", "  ")
		if err != nil {
			fatalf("ccbench: marshal hashes: %v", err)
		}
		if err := os.WriteFile(*hashesPath, append(buf, '\n'), 0o644); err != nil {
			fatalf("ccbench: %v", err)
		}
	}
	if golden != nil {
		if goldenBad > 0 {
			fatalf("ccbench: golden: %d of %d experiments diverged from %s", goldenBad, len(exps), *goldenPath)
		}
		fmt.Fprintf(os.Stderr, "ccbench: golden: %d experiments bit-identical to %s\n", len(exps), *goldenPath)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatalf("ccbench: %v", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("ccbench: write heap profile: %v", err)
		}
	}
}

// flagValues are the flags checkFlags validates.
type flagValues struct {
	ids                              []string
	quick                            bool
	ports                            int
	golden, hashes, faults, protocol string
}

// checked is what checkFlags resolves from valid flags.
type checked struct {
	exps  []*experiments.Experiment
	plan  *ccnic.FaultPlan
	proto ccnic.Protocol
}

// checkFlags rejects a flag combination ccbench cannot honor, with a
// message naming the flag, and resolves the experiment IDs, fault plan and
// protocol. Golden and hash runs pin full scale, a fault-free plan, the
// UPI backend and the default fabric geometry.
func checkFlags(v flagValues) (checked, error) {
	var c checked
	pinned := v.golden != "" || v.hashes != ""
	for _, id := range v.ids {
		e := experiments.ByID(id)
		if e == nil {
			return c, fmt.Errorf("unknown experiment %q (try -list)", id)
		}
		c.exps = append(c.exps, e)
	}
	if v.golden != "" && v.quick {
		return c, fmt.Errorf("-golden compares full-scale output; drop -quick")
	}
	var err error
	if c.plan, err = ccnic.ParseFaultPlan(v.faults); err != nil {
		return c, err
	}
	if c.plan != nil && pinned {
		return c, fmt.Errorf("-faults perturbs experiment output; golden and hash runs must be fault-free")
	}
	if c.proto, err = ccnic.ParseProtocol(v.protocol); err != nil {
		return c, err
	}
	if c.proto != ccnic.ProtoUPI && pinned {
		return c, fmt.Errorf("goldens are pinned to the default UPI backend; golden and hash runs must not select -protocol %v", c.proto)
	}
	if v.ports != 0 && v.ports < 2 {
		return c, fmt.Errorf("-ports needs at least 2 switch ports")
	}
	if v.ports != 0 && pinned {
		return c, fmt.Errorf("-ports changes the fabric sweep geometry; golden and hash runs pin the defaults")
	}
	return c, nil
}

// rssBudgetMiB caps the peak RSS of a -check run: the full suite peaks
// near 120 MiB on 2 vCPUs, and near 200 MiB at GOMAXPROCS=4, so a 4x
// regression at the wider pool fails.
const rssBudgetMiB = 1 << 10

// peakRSSMiB is the process's peak resident set size, read from getrusage
// as cmd/ccperf reads its peak_rss_mib.
func peakRSSMiB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("ccbench: getrusage: %v", err)
	}
	return int64(ru.Maxrss) / 1024 // Linux reports KiB
}

// expResult is one experiment's rendered section and its wall-clock time.
type expResult struct {
	section string
	wall    time.Duration
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// splitGolden parses a full ccbench transcript into normalized per-experiment
// sections keyed by experiment ID.
func splitGolden(text string) map[string]string {
	sections := make(map[string]string)
	var id string
	var cur []string
	flush := func() {
		if id != "" {
			sections[id] = experiments.Normalize(strings.Join(cur, "\n"))
		}
		cur = cur[:0]
	}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			flush()
			id, _, _ = strings.Cut(rest, ":")
		}
		cur = append(cur, line)
	}
	flush()
	return sections
}

// reportGoldenDiff prints the first differing line of a mismatched section.
func reportGoldenDiff(id, want, got string) {
	wantLines := strings.Split(want, "\n")
	gotLines := strings.Split(got, "\n")
	n := len(wantLines)
	if len(gotLines) < n {
		n = len(gotLines)
	}
	for i := 0; i < n; i++ {
		if wantLines[i] != gotLines[i] {
			fmt.Fprintf(os.Stderr, "ccbench: golden: %s diverges at line %d:\n  golden: %q\n  got:    %q\n",
				id, i+1, wantLines[i], gotLines[i])
			return
		}
	}
	fmt.Fprintf(os.Stderr, "ccbench: golden: %s diverges in length: golden %d lines, got %d\n",
		id, len(wantLines), len(gotLines))
}
