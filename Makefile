# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test short race vet lint loc golden bench bench-json bench-compare fuzz chaos crash examples reproduce clean

all: build vet test

build:
	go build ./...

test:
	go test ./...

short:
	go test -short ./...

race:
	go test -race ./...

vet:
	go vet ./...

# lint = vet + gofmt, plus staticcheck/govulncheck when on PATH (CI
# installs them; local runs degrade gracefully without network access).
lint: vet
	@fmt_out="$$(gofmt -l .)"; if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

# loc prints non-test Go lines per package outside benchmark/, then the
# total: the number ROADMAP's code budget and every CHANGES.md "line
# delta per package" are stated in.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | \
		xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# golden regenerates cmd/tsnbench/testdata (TestGoldenOutput's oracle):
# stdout and the CSV files of every experiment at -short. E-SCALE's
# section is cut from stdout — its wall-clock columns differ run to run.
GOLDEN = cmd/tsnbench/testdata
golden:
	rm -rf $(GOLDEN) && mkdir -p $(GOLDEN)
	go run ./cmd/tsnbench -short -exp all -csv $(GOLDEN) | \
		awk '/^E-SCALE/ { skip = 1 } !skip { print } skip && /^$$/ { skip = 0 }' > $(GOLDEN)/stdout.txt

bench:
	go test -bench=. -benchmem .

# bench-json captures the bench run as JSON (BENCH_<date>.json) for
# regression tracking; -short keeps it at test scale. -count=3 gives
# benchjson three samples per benchmark to collapse best-of-N: macro
# benchmarks jitter by tens of percent on a loaded host, and the
# fastest sample is the one that reflects the code. -cpu 1 keeps the
# committed trajectory on one configuration: the earlier BENCH files
# come from a single-core host, and at GOMAXPROCS=1 go test adds no -N
# suffix to the names, so files from hosts with different core counts
# compare row for row instead of reading as all-new/all-missing.
BENCH_RUN = go test -bench=. -benchmem -short -count=3 -cpu 1 -timeout=60m .
bench-json:
	$(BENCH_RUN) | go run ./cmd/benchjson -o BENCH_$$(date +%Y%m%d).json

# bench-compare gates the current bench run against the newest
# committed BENCH_*.json (the date in the name sorts; override with
# BENCH_BASELINE=file): >20% ns/op slowdown fails, as does any allocs/op increase
# on zero-alloc benchmarks (>0.1% on allocation-heavy ones). Samples
# best-of-3 like bench-json so host noise doesn't trip the gate.
BENCH_BASELINE ?= $(lastword $(sort $(shell git ls-files 'BENCH_*.json')))
bench-compare:
	$(BENCH_RUN) | go run ./cmd/benchjson -o /tmp/bench_current.json
	go run ./cmd/benchjson -compare $(BENCH_BASELINE) /tmp/bench_current.json

fuzz:
	go test -fuzz=FuzzUnmarshal -fuzztime=30s ./internal/ethernet/
	go test -fuzz=FuzzUnmarshalMessage -fuzztime=30s ./internal/gptp/
	go test -fuzz=FuzzParse -fuzztime=30s ./internal/faults/
	go test -fuzz=FuzzValidateMatchesReference -fuzztime=30s ./internal/faults/
	go test -fuzz=FuzzScenarioApply -fuzztime=30s ./testbed/
	go test -fuzz=FuzzReplayDurable -fuzztime=30s ./internal/svc/
	go test -fuzz=FuzzWALReader -fuzztime=30s ./internal/wal/
	go test -fuzz=FuzzComputeEquivalence -fuzztime=30s ./internal/itp/
	go test -fuzz=FuzzComputeMatchesDenseGrid -fuzztime=30s ./internal/itp/
	go test -fuzz=FuzzHeapOrder -fuzztime=30s ./internal/sim/
	go test -fuzz=FuzzGCLMatchesReference -fuzztime=30s ./internal/gate/
	go test -fuzz=FuzzPortGateCursorMatchesList -fuzztime=30s ./internal/tsnswitch/
	go test -fuzz=FuzzSpecHashMatchesReference -fuzztime=30s ./internal/svc/
	go test -fuzz=FuzzReconfigRequest -fuzztime=30s ./internal/svc/
	go test -fuzz=FuzzLoadDelta -fuzztime=30s ./internal/chaos/
	go test -fuzz=FuzzLoadProfile -fuzztime=30s ./internal/chaos/
	go test -fuzz=FuzzLoadRepro -fuzztime=30s ./internal/chaos/
	go test -fuzz=FuzzDeriveRequest -fuzztime=30s ./internal/svc/
	go test -fuzz=FuzzBuild -fuzztime=30s ./internal/workload/
	go test -fuzz=FuzzParse -fuzztime=30s ./internal/scenariofile/

# chaos runs a randomized invariant-checking campaign (fixed default
# seed — rerun with the same profile to reproduce); failing cases leave
# minimal-repro artifacts in chaos-out/.
chaos:
	go run ./cmd/tsnsim -chaos default -chaos-budget 60s -chaos-out chaos-out

# crash runs the fixed-seed kill-anywhere crash-recovery campaign
# against a race-instrumented tsnserve: 50 SIGKILL/WAL-hook kill points,
# each followed by a restart that must recover every acknowledged
# transaction. The durable state lives in crash-state/ (kept on failure
# for inspection, removed on a passing run).
crash:
	rm -rf crash-state
	go build -race -o tsnserve.crash ./cmd/tsnserve
	./tsnserve.crash -crash-chaos -chaos-seed 42 -crash-kills 50 -state-dir crash-state
	rm -rf crash-state tsnserve.crash

# examples runs every examples/*/main.go (the directory list is the
# catalog; TestExamplesMatchReadme holds examples/README.md to it).
examples:
	@for main in examples/*/main.go; do \
		ex=$${main%/main.go}; \
		echo "=== $${ex#examples/} ==="; go run ./$$ex || exit 1; \
	done

reproduce:
	go run ./cmd/tsnbench -exp all

clean:
	go clean ./...
