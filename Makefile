# ppnpart build/evaluation targets. Everything is plain `go` underneath;
# the Makefile just names the common invocations.

GO ?= go

.PHONY: all build test vet staticcheck race cover bench bench-json \
	bench-baseline figures report examples clean check fmt-check \
	fuzz-smoke chaos-smoke serve bench-module

all: build vet test

# The CI gate: formatting, vet, staticcheck (when installed),
# race-enabled tests, the nested bench module, and a short fuzz smoke pass
# over every fuzz target.
check: fmt-check vet staticcheck bench-module
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke
	$(MAKE) chaos-smoke

# bench/ is a Go module of its own (it replaces ppnpart with ../), so the
# root `go build ./...` and `go test ./...` never compile it: an export the
# benchmark uses could vanish unnoticed. Vet and test it explicitly.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# staticcheck is optional locally (CI installs it): skip with a notice
# when the binary is absent rather than failing the gate.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# gofmt produces no output when everything is formatted; any listed file
# fails the target.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Go refuses -fuzz patterns matching more than one target per package,
# so each target runs on its own.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadMETIS -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzReadEdgeList -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzReadIncidence -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzReadJSON -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzContract -fuzztime=$(FUZZTIME) ./internal/coarsen
	$(GO) test -run='^$$' -fuzz=FuzzReadTopologyJSON -fuzztime=$(FUZZTIME) ./internal/fpga
	$(GO) test -run='^$$' -fuzz=FuzzStateDifferential -fuzztime=$(FUZZTIME) ./internal/pstate
	$(GO) test -run='^$$' -fuzz=FuzzHyperPState -fuzztime=$(FUZZTIME) ./internal/pstate
	$(GO) test -run='^$$' -fuzz=FuzzJobRequest -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzTraceDecode -fuzztime=$(FUZZTIME) ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzJournalDecode -fuzztime=$(FUZZTIME) ./internal/journal
	$(GO) test -run='^$$' -fuzz=FuzzBatchSelect -fuzztime=$(FUZZTIME) ./internal/refine
	$(GO) test -run='^$$' -fuzz=FuzzGainBuckets -fuzztime=$(FUZZTIME) ./internal/refine
	$(GO) test -run='^$$' -fuzz=FuzzStreamAssign -fuzztime=$(FUZZTIME) ./internal/stream

# Resilience gate: every chaos/failpoint test (panic isolation, quarantine,
# journal fsync/torn-append injection, SIGKILL crash recovery) under the
# race detector, with a deterministic failpoint schedule.
chaos-smoke:
	$(GO) test -race -count=1 ./internal/chaos ./internal/journal
	$(GO) test -race -count=1 -run 'Chaos' ./internal/server ./cmd/ppnd ./internal/engine

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/... .

cover:
	$(GO) test -cover ./...

# Regenerates every table and figure as benchmarks with the paper's
# values attached as custom metrics.
bench:
	$(GO) test -bench=. -benchmem ./...

# Benchmark trajectory: runs the partitioning hot-path benches, converts
# the output to JSON and merges the checked-in baseline so the file holds
# before/after ns/op, allocs/op and cut metrics plus speedups.
# BENCHPAT/BENCHTIME narrow the run (CI smoke uses the small instance).
BENCHPAT ?= BenchmarkScaleGP|BenchmarkScaleBaseline|BenchmarkPState|BenchmarkStream|BenchmarkFMBisect|BenchmarkKWayFM|BenchmarkBatchKWay|BenchmarkReplicate|BenchmarkHeavyEdgeMatching|BenchmarkKMeansMatching|BenchmarkContract|BenchmarkBuildHierarchy|BenchmarkBuildFold|BenchmarkDecodeStarRequest
BENCHTIME ?= 3x
# BENCHJSONFLAGS=-allow-missing lets a deliberately narrowed run (the CI
# smoke) skip baseline benchmarks its pattern excludes; the full run keeps
# the strict default, which errors when a baseline benchmark vanishes.
# Add -gate-allocs/-gate-ns percentages to fail the run on regressions
# beyond the threshold (allocs/op is roughly machine-independent; ns/op
# gating only makes sense on a quiet, comparable machine).
BENCHJSONFLAGS ?=
# BENCHCPU lists GOMAXPROCS widths the way go test's -cpu flag takes
# them (BENCHCPU=1,2 records pool scaling next to the width-1 rows). Each
# width is passed to -cpu in a test process of its own: the solver's
# shared worker pool is sized on first use, so in one process every later
# width would run on the first width's pool. benchjson keeps a row per
# benchmark and width; the first width's rows keep the bare names
# bench_baseline.json matches, the others a -N suffix, and benchjson
# refuses a run whose first width is not the baseline's (width 1). Empty
# runs once at the default GOMAXPROCS.
BENCHCPU ?=
comma := ,
BENCHRUN = for c in $(or $(subst $(comma), ,$(BENCHCPU)),default); do \
		$(GO) test -run='^$$' -bench='$(BENCHPAT)' -benchtime=$(BENCHTIME) \
			$$([ $$c = default ] || echo -cpu=$$c) -benchmem . ./internal/pstate ./internal/stream \
			./internal/refine ./internal/match ./internal/coarsen ./internal/graph; \
	done
bench-json:
	$(BENCHRUN) | \
		$(GO) run ./cmd/benchjson $(BENCHJSONFLAGS) -baseline bench_baseline.json -o BENCH_partition.json
	@echo wrote BENCH_partition.json

# Like bench-json, but also folds the run into bench_baseline.json —
# the path for refreshing the baseline after adding a benchmark (new
# entries are appended, uncovered baseline entries preserved).
bench-baseline:
	$(BENCHRUN) | \
		$(GO) run ./cmd/benchjson $(BENCHJSONFLAGS) -baseline bench_baseline.json \
			-write-baseline bench_baseline.json -o BENCH_partition.json
	@echo wrote BENCH_partition.json and refreshed bench_baseline.json

# The partitioning service daemon on :8080 (see README for the API).
serve:
	$(GO) run ./cmd/ppnd -addr :8080

# Figures 2-13 (DOT + SVG) plus the printed tables.
figures:
	$(GO) run ./cmd/experiments -figures -out out

# The full evaluation in one Markdown file (plus figures) under out/.
report:
	$(GO) run ./cmd/experiments -report out/REPORT.md -out out

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/multifpga
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/heterogeneous

clean:
	rm -rf out
