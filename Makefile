# BF-Tree — build, test and benchmark targets mirroring CI
# (.github/workflows/ci.yml). `make ci` runs the full gate locally.

GO ?= go

# Packages with concurrency-sensitive code; `make race` and CI run these
# under the race detector.
RACE_PKGS := ./internal/core/... ./internal/pagestore/... ./internal/device/... ./internal/forest/...

.PHONY: help build test race bench bench-json conformance forest mixed compact serve overlap perfbench-test fmt fmt-fix vet ci clean

help:
	@echo "BF-Tree — available targets:"
	@echo ""
	@echo "  make build    - go build ./..."
	@echo "  make test     - go test ./..."
	@echo "  make race     - race-detector tests on core/pagestore/device"
	@echo "  make conformance - cross-backend index API conformance suite"
	@echo "  make forest   - forest race suite + concurrent conformance under -race"
	@echo "  make mixed    - workload-engine driver tests (golden model + concurrency) under -race"
	@echo "  make compact  - incremental-compaction gate: stall comparison, race + interleaving tests, hold bound under real latency"
	@echo "  make serve    - serving-layer gate: server + loadgen suites under -race, serve-load scaling test"
	@echo "  make overlap  - overlapped-read gate: vectored device/store reads and MultiSearch's overlap under -race"
	@echo "  make perfbench-test - the nested perfbench module's self-tests"
	@echo "  make bench    - run every benchmark once (smoke) "
	@echo "  make bench-json - regenerate every BENCH_*.json artifact (see the README table)"
	@echo "  make fmt      - fail if any file needs gofmt"
	@echo "  make fmt-fix  - gofmt -w the tree"
	@echo "  make vet      - go vet ./..."
	@echo "  make ci       - everything CI runs, in order"
	@echo "  make clean    - drop build and test caches"
	@echo ""

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

conformance:
	$(GO) test -run 'TestConformance|TestCapabilityMatrix' -v ./index/

# The sharded-forest gate: per-shard maintainers and the page-economy
# audit under the race detector, plus every backend's concurrent
# conformance run.
forest:
	$(GO) test -race ./internal/forest/
	$(GO) test -race -run TestConformanceConcurrent ./index/

# The workload-engine gate: op-stream layer tests, the mixed-op golden
# model across every backend, and the concurrent mixed driver under the
# race detector.
mixed:
	$(GO) test ./internal/workload/
	$(GO) test -race -run 'TestDriver|TestMixedWorkload' ./internal/bench/

# The incremental-compaction gate: the writer/maintainer race tests
# (drift accounting + page economy under -race, with and without real
# device latency), the deterministic build/swap interleaving tests, the
# exclusive-hold bound under real latency, and the stall-comparison
# smoke asserting incremental cuts the max writer stall vs full rebuild.
compact:
	$(GO) test -race -run 'TestIncrementalCompactionRace|TestIncrementalMaintainConverges|TestCompactReplaysWritesDuringBuild|TestCompactAbandonsSwapOfRetiredLeaf|TestCompactionHoldBoundedUnderRealLatency' ./internal/core/
	$(GO) test -run 'TestCompactionStall' ./internal/bench/

# The serving-layer gate: golden equivalence + capability matrix +
# backpressure + the 8-client concurrency test under -race, then the
# serve-load queue-depth scaling assertion over real connections.
serve:
	$(GO) test -race ./internal/server/...
	$(GO) test -run 'TestServeLoad|TestArtifactRegistry' ./internal/bench/

# The overlapped-read gate: the vectored device read's accounting and
# timing contract, the store's cache admission under a concurrent
# writer, and MultiSearch's overlap bound with per-key equivalence on
# every backend — all under the race detector.
overlap:
	$(GO) test -race -run 'ReadPages' ./internal/device/ ./internal/pagestore/
	$(GO) test -race -run 'TestMultiSearchOverlaps' ./internal/core/ ./index/

# perfbench is a nested module (its own go.mod), so the root
# `go test ./...` never reaches its self-tests.
perfbench-test:
	cd perfbench && $(GO) test ./...

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Regenerates the committed streaming/batching result artifacts at the
# scale CI smokes them.
bench-json:
	$(GO) run ./cmd/bfbench -exp scan-stream -tuples 30000 -probes 128 -json .
	$(GO) run ./cmd/bfbench -exp batched-probe -tuples 30000 -probes 256 -json .
	$(GO) run ./cmd/bfbench -exp point-lookup -index=each -tuples 30000 -probes 256 -json .
	$(GO) run ./cmd/bfbench -exp mixed-workload -index=each -tuples 30000 -probes 256 -json .
	$(GO) run ./cmd/bfbench -exp compaction-stall -tuples 30000 -json .
	$(GO) run ./cmd/bfbench -exp serve-load -index=each -tuples 20000 -probes 64 -json .

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

fmt-fix:
	gofmt -w .

vet:
	$(GO) vet ./...

ci: fmt vet build test race conformance forest mixed compact serve overlap perfbench-test bench

clean:
	$(GO) clean -testcache
	rm -f *.prof
