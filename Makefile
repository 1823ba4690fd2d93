GO ?= go
# staticcheck version the CI workflow pins; keep the local install in
# sync with `go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)`.
STATICCHECK_VERSION ?= 2025.1

.PHONY: check vet staticcheck build test race benchsmoke benchmod benchpairs fuzzsmoke surface fmt

# check is the tier-1 gate: vet, staticcheck (when installed), build,
# the full test suite under the race detector, a one-iteration
# compile-and-run pass over every benchmark so a broken benchmark
# cannot sit undetected, the bench/ module's own vet and tests, and a
# short fuzz of the columnar codec.
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

# benchsmoke runs every benchmark exactly once — no timing fidelity,
# just proof that each one still compiles, runs, and terminates — then
# the pipeline, ISM ingest, relay fan-in and relay merge benchmarks
# once more at GOMAXPROCS=4, so their lanes and merger run on more
# than one P.
benchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) test -run=NONE -bench='PipelineThroughput|ISMPipeline|RelayFanIn' -benchtime=1x -cpu 4 .
	$(GO) test -run=NONE -bench=RelayMerge -benchtime=1x -cpu 4 ./internal/isruntime/relay/

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
# back); so is the causal merger's message table, against a Go map,
# and the session protocol's two ends, against a model of the replay
# window and the receiver's dedup and ack frontier.
# Minimising a new input gets 100 runs instead of Go's default
# 60 s, which would eat the whole budget.
FUZZFLAGS = -run=NONE -fuzztime=10s -fuzzminimizetime=100x
fuzzsmoke:
	$(GO) test $(FUZZFLAGS) -fuzz='^FuzzSegmentDecode$$' ./internal/trace
	$(GO) test $(FUZZFLAGS) -fuzz='^FuzzColumnsDecode$$' ./internal/trace
	$(GO) test $(FUZZFLAGS) -fuzz='^FuzzColumnsEncode$$' ./internal/trace
	$(GO) test $(FUZZFLAGS) -fuzz='^FuzzMsgTable$$' ./internal/trace
	$(GO) test $(FUZZFLAGS) -fuzz='^FuzzReadMessage$$' ./internal/isruntime/tp
	$(GO) test $(FUZZFLAGS) -fuzz='^FuzzSessionProtocol$$' ./internal/isruntime/fault

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
