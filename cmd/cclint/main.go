// Command cclint is the repository's static-analysis multichecker. It runs
// the internal/lint suite — detlint, yieldlint, probelint, alloclint,
// shardlint, ownlint, timelint, exhaustlint — over the module packages and
// exits nonzero on any finding, so `make lint` and CI enforce the
// simulator's determinism, yield-safety, probe-guard, zero-allocation,
// shard-boundary, buffer-ownership, sim-time, and enum-coverage invariants
// at compile time.
//
// Usage:
//
//	cclint [-only name[,name]] [packages]
//
// Packages default to ./... resolved from the current directory. -only
// restricts the run to a comma-separated subset of analyzers. Findings print
// one per line as file:line:col: analyzer: message; exit status 1 means
// findings, 2 a usage or load error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ccnic/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer subset (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: cclint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *only != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for name := range want {
			fmt.Fprintf(os.Stderr, "cclint: unknown analyzer %q\n", name)
			os.Exit(2)
		}
		analyzers = sel
	}

	prog, err := lint.Load(".", flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cclint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(prog, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cclint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "cclint: %d findings\n", len(diags))
		os.Exit(1)
	}
}
