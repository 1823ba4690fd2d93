GO ?= go
BENCH ?= .
BENCHCOUNT ?= 5
BENCHTIME ?= 1s
# GOMAXPROCS sweep for the multi-core scaling benchmarks: the pipeline
# and ISM ingest paths are the ones the sharded merge is supposed to
# scale, so `make bench` re-runs them at each of these proc counts.
BENCHCPUS ?= 1,2,4,8
SWEEPBENCH ?= PipelineThroughput|ISMPipeline|RelayFanIn
# staticcheck version the CI workflow pins; keep the local install in
# sync with `go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)`.
STATICCHECK_VERSION ?= 2025.1
SHA := $(shell git rev-parse --short HEAD)
# benchdiff inputs: baseline file (no default: name the document to
# compare against), candidate file, and the ns/op regression percentage
# that fails the diff.
CANDIDATE ?= BENCH_$(SHA).json
THRESHOLD ?= 5

.PHONY: check vet staticcheck build test race bench benchsmoke benchmod benchdiff benchpairs fuzzsmoke surface fmt

# check is the tier-1 gate: vet, staticcheck (when installed), build,
# the full test suite under the race detector, a one-iteration
# compile-and-run pass over every benchmark so a broken benchmark
# cannot sit undetected until the next `make bench`, the bench/ module's
# own vet and tests, and a short fuzz of the columnar codec.
# Run it before every commit.
check: vet staticcheck build race benchsmoke benchmod fuzzsmoke

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is on PATH and is skipped with a
# notice otherwise (offline containers cannot `go install` it); CI
# always installs the pinned $(STATICCHECK_VERSION), so findings never
# reach main unchecked either way.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs $(STATICCHECK_VERSION))"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench records a baseline: -count runs of every benchmark, aggregated
# into BENCH_<sha>.json (ns/op min/mean/max, allocs/op, and the
# GOMAXPROCS/NumCPU context that makes speedups interpretable). The
# file is a local artifact for `make benchdiff`, not committed.
# Narrow with e.g. `make bench BENCH=FactorialVista BENCHCOUNT=3`.
bench:
	$(GO) test -run XXX -timeout 0 -bench '$(BENCH)' -benchtime $(BENCHTIME) -benchmem -count $(BENCHCOUNT) ./... | tee bench.out
	$(GO) test -run XXX -timeout 0 -bench '$(SWEEPBENCH)' -benchtime $(BENCHTIME) -benchmem -count $(BENCHCOUNT) -cpu $(BENCHCPUS) . | tee -a bench.out
	$(GO) run ./cmd/benchjson -sha $(SHA) < bench.out > BENCH_$(SHA).json
	@rm -f bench.out
	@echo wrote BENCH_$(SHA).json

# benchsmoke runs every benchmark exactly once — no timing fidelity,
# just proof that each one still compiles, runs, and terminates.
benchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) test -run=NONE -bench='$(SWEEPBENCH)' -benchtime=1x -cpu 4 .

# benchmod vets and tests the runtime benchmark under bench/. It is a
# module of its own (root `go build ./...` does not see it) that
# constructs internal/ types by name, so an internal/ API change that
# breaks it must fail here rather than at the next benchmark run.
benchmod:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# fuzzsmoke gives the codec fuzz targets a short budget: enough to
# catch a regression on the corpus plus fresh mutations, cheap enough
# to sit inside the tier-1 gate. Both ends of the columnar codec's life
# are covered: segment files, wire bodies against the serial reference
# decoder, arbitrary records against the serial reference encoder, and
# the wire's frame stream (control, flat and columnar frames back to
# back). Minimising a new input gets 100 runs instead of Go's default
# 60 s, which would eat the whole budget.
FUZZFLAGS = -run=NONE -fuzztime=10s -fuzzminimizetime=100x
fuzzsmoke:
	$(GO) test $(FUZZFLAGS) -fuzz='^FuzzSegmentDecode$$' ./internal/trace
	$(GO) test $(FUZZFLAGS) -fuzz='^FuzzColumnsDecode$$' ./internal/trace
	$(GO) test $(FUZZFLAGS) -fuzz='^FuzzColumnsEncode$$' ./internal/trace
	$(GO) test $(FUZZFLAGS) -fuzz='^FuzzReadMessage$$' ./internal/isruntime/tp

# benchdiff compares two benchmark documents recorded on the same host
# shape (benchjson refuses a num_cpu or GOMAXPROCS mismatch) and fails
# on ns/op regressions past THRESHOLD percent:
#   make benchdiff BASELINE=BENCH_old.json CANDIDATE=BENCH_new.json
benchdiff:
	@test -n "$(BASELINE)" || { echo "usage: make benchdiff BASELINE=<old.json> [CANDIDATE=BENCH_$(SHA).json] [THRESHOLD=5]" >&2; exit 2; }
	$(GO) run ./cmd/benchjson -compare -threshold $(THRESHOLD) $(BASELINE) $(CANDIDATE)

# benchpairs is the evidence behind a performance claim: PAIRS
# alternated runs of bench/run.sh at PARENT (a commit, checked out into
# a worktree under .bench_build/, or a directory) and in this working
# tree, summarised per end-to-end metric as medians, quartiles and wins
# (WORKLOAD=all: every workload of BENCHMARK.json in turn):
#   make benchpairs PARENT=edaa93c WORKLOAD=fed_tree PAIRS=10 SEED=1
PAIRS ?= 10
SEED ?= 1
benchpairs:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { echo "usage: make benchpairs PARENT=<sha|dir> WORKLOAD=<workload|all> [PAIRS=10] [SEED=1]" >&2; exit 2; }
	bash scripts/benchpairs.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SEED)

# surface prints the numbers every change reports: non-test Go LOC
# outside bench/, DESIGN.md lines and each cmd/ binary's flag count.
surface:
	bash scripts/surface.sh

fmt:
	gofmt -l -w .
