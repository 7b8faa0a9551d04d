# Developer/CI entry points for the CC-NIC reproduction.
#
#   make check        tier-1 verify + lint + vet + race (sim) + benchmark smoke
#                     + matrix + golden-check + golden-shards
#   make verify       tier-1: go build ./... && go test ./...
#   make lint         cclint static-analysis suite (detlint, yieldlint,
#                     probelint, alloclint, shardlint, ownlint, timelint,
#                     exhaustlint) over every module package
#   make vet          go vet, and fail on any file gofmt -l lists
#   make race         race detector over the packages with real goroutines
#                     (kernel, parallel shard engine, cluster model, the
#                     experiments' slot pool)
#   make ledger       the park-site ledger: each testbed workload of the
#                     repository benchmark (seed 1) with its events, coroutine
#                     switches, leading park sites and parking processes
#   make loc          the non-test Go line count the ROADMAP's code budget
#                     is kept in (the benchmark module and lint fixtures
#                     excluded)
#   make bench-smoke  one-iteration pass over the kernel, headline, KV and cluster benches,
#                     then the tests of cmd/ccperf, the repository benchmark
#                     (its own module, so `go test ./...` never builds it)
#   make matrix       seed 1 of one armed row per family (faults, protocols,
#                     fabric, chaos) of the checked quick-run matrix in
#                     cmd/ccbench/matrix.sh; CI runs every row over seeds 1-3
#   make golden-check full suite with online invariant checks, diffed against
#                     the committed golden transcript (minutes)
#   make golden-shards golden-check again at GOMAXPROCS=4 (four slots in the
#                     experiments' pool): scheduling must not change a byte
#   make parity BASE=<rev>
#                     the artifacts in cmd/ccbench/parity.txt (full and quick
#                     transcripts, ccperf fingerprints) at BASE and at the
#                     working tree, one table marking each identical or not
#                     (many minutes; builds both in a temporary directory)
#   make golden       regenerate the committed golden transcript and the
#                     quick-suite output hashes after an intentional model
#                     change (minutes)

GO ?= go

.PHONY: check verify lint vet race ledger loc bench-smoke matrix golden-check golden-shards parity golden

check: verify lint vet race bench-smoke matrix golden-check golden-shards

verify:
	$(GO) build ./...
	$(GO) test ./...

# Static enforcement of the simulator invariants (DESIGN.md §5): exits
# nonzero on any determinism, yield-safety, probe-guard, noalloc,
# shard-boundary, buffer-ownership, sim-time, or enum-coverage finding.
lint:
	$(GO) run ./cmd/cclint ./...

# go vet, then gofmt: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

race:
	$(GO) test -race -count=1 ./internal/sim/ ./internal/sim/shard/ ./internal/fabric/ ./internal/cluster/
	$(GO) test -race -count=1 -run 'TestPool' ./internal/experiments/
	$(GO) test -race -count=1 -run 'TestCluster' ./internal/check/prop/

# TestParkLedger with its log: the ledger DESIGN §7 quotes.
ledger:
	$(GO) test -count=1 -run TestParkLedger -v .

# Non-test Go lines, by the count the ROADMAP's code budget is kept in.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './cmd/ccperf/*' \
		-not -path './internal/lint/testdata/*' | xargs cat | wc -l

bench-smoke:
	$(GO) test -run '^$$' -bench 'Kernel|LoopbackCCNIC|KV|Cluster' -benchtime 1x .
	cd cmd/ccperf && $(GO) test ./...

# The make-check slice of the checked quick-run matrix, whose rows live in
# cmd/ccbench/matrix.sh.
matrix:
	bash cmd/ccbench/matrix.sh slice > /dev/null

# Every experiment at full scale with the invariant engine attached; output
# must be bit-identical to the committed transcript. ccbench exits 1 on any
# invariant violation or golden divergence.
golden-check:
	$(GO) run ./cmd/ccbench -all -check -golden experiments_full.txt > /dev/null

# The same golden diff with four slots in the experiments' pool, whatever
# the host's CPU count: scheduling must not perturb a single byte of output.
golden-shards:
	GOMAXPROCS=4 $(GO) run ./cmd/ccbench -all -check -golden experiments_full.txt > /dev/null

# Behaviour parity of the working tree against BASE; exits 1 on any
# differing artifact.
parity:
	@test -n "$(BASE)" || { echo "usage: make parity BASE=<rev>"; exit 2; }
	bash cmd/ccbench/parity.sh $(BASE)

# Regenerate the goldens. Run only after an intentional model change, and
# review the transcript diff like source.
golden:
	$(GO) run ./cmd/ccbench -all -check > experiments_full.txt
	$(GO) run ./cmd/ccbench -quick -all -hashes experiments_quick_hashes.json > /dev/null
