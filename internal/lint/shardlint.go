package lint

import (
	"go/ast"
	"sort"
)

// Shardlint confines cross-shard communication to declared link boundaries.
// The parallel shard runtime's conservative synchronization is only sound
// because every cross-shard interaction flows through a shard.Link with a
// declared minimum latency (the lookahead). A model package that conjures a
// Link.Send — or declares new links with Engine.Connect — outside the
// composition layer can violate the lookahead contract in ways the runtime
// only catches at simulation time (and only on exercised paths). Shardlint
// moves that to compile time: Link.Send and Engine.Connect may appear only
// in the shard runtime itself and in the package that assembles shard
// topologies (internal/fabric). There is no suppression key: a new boundary
// package is added to the list below.
var Shardlint = &Analyzer{
	Name: "shardlint",
	Doc:  "confine shard.Link.Send and shard.Engine.Connect to declared link-boundary packages",
	Run:  runShardlint,
}

// shardBoundaryPkgs are the packages allowed to send across shards and to
// declare new links: the runtime itself and the topology-composition layer.
// (A var, not a const map, so the suite's self-test can shrink it and prove
// the analyzer fires.)
var shardBoundaryPkgs = map[string]bool{
	"ccnic/internal/sim/shard": true,
	"ccnic/internal/fabric":    true,
}

const (
	shardLinkSend      = "(*ccnic/internal/sim/shard.Link).Send"
	shardEngineConnect = "(*ccnic/internal/sim/shard.Engine).Connect"
)

// SetShardBoundaryPkgs replaces the boundary allowlist and returns the
// previous one, for the suite's self-test.
func SetShardBoundaryPkgs(paths []string) []string {
	var prev []string
	//ccnic:nondet-ok sorted-collect: fully ordered below
	for p := range shardBoundaryPkgs {
		prev = append(prev, p)
	}
	sort.Strings(prev)
	m := make(map[string]bool, len(paths))
	for _, p := range paths {
		m[p] = true
	}
	shardBoundaryPkgs = m
	return prev
}

func runShardlint(pass *Pass) error {
	if shardBoundaryPkgs[pass.Pkg.Path] || driverPackage(pass.Pkg.Path) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			switch fn.FullName() {
			case shardLinkSend:
				pass.Report(call.Pos(), "shard.Link.Send outside a declared link boundary: cross-shard traffic belongs to the topology layer (internal/fabric)")
			case shardEngineConnect:
				pass.Report(call.Pos(), "shard.Engine.Connect outside a topology-composition package: declare link boundaries where shards are assembled (internal/fabric)")
			}
			return true
		})
	}
	return nil
}
