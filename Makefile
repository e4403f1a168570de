# Build, test and reproduce the UDP paper's evaluation.

GO ?= go

.PHONY: all build test bench fmt-check smoke soak-short soak fuzz-smoke race check examples reproduce reproduce-paper clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

fmt-check:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# End-to-end server check: build udpserved, serve a random port, stream a
# gzip'd CSV through POST /v1/transform/csvparse, verify output + metrics,
# then drain with SIGTERM.
smoke:
	$(GO) run ./scripts/smoke

# Soak/chaos harness (docs/SOAK.md): udploader launches udpserved, drives a
# mixed workload with fault injection and mid-run kills, and exits non-zero
# on any SLO or leak-invariant violation.
soak-short:
	$(GO) run ./cmd/udploader -recipe scripts/soak/recipes/short.json

soak:
	$(GO) run ./cmd/udploader -recipe scripts/soak/recipes/nightly.json

race:
	$(GO) test -race ./internal/load ./internal/machine ./internal/memsys ./internal/sched ./internal/server ./internal/kernels/... .

# Short fuzz passes over the hostile-input surfaces: the fault-injection
# spec parser and the record chunker; and over the compiled tier's
# byte-step tables against the memory interpreter.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzParseInjectSpec -fuzztime=10s ./internal/fault
	$(GO) test -run=NONE -fuzz=FuzzRecords -fuzztime=10s ./internal/sched
	$(GO) test -run=NONE -fuzz=FuzzCompiledRuns -fuzztime=10s ./internal/machine

# The CI gate: tier-1 (build + test) plus gofmt, vet, the simulated
# makespan at 1, 2 and 8 host workers, the race detector over the whole
# module, the fuzz smoke, and the udpserved smoke test.
check: fmt-check
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -run 'TestMakespanDeterministic|TestCyclesTrailerDeterministic' -cpu 1,2,8 ./internal/sched ./internal/server
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke
	$(GO) run ./scripts/smoke

# The repository benchmark (benchmark/README.md): four byte-verified
# workloads, end-to-end and per-layer metrics, results.json.
bench:
	$(GO) run ./benchmark

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/csvload
	$(GO) run ./examples/logscan
	$(GO) run ./examples/telemetry
	$(GO) run ./examples/queryscan
	$(GO) run ./examples/assembler
	$(GO) run ./examples/genomics
	$(GO) run ./examples/dpi

# CI-sized regeneration of every table and figure.
reproduce:
	$(GO) run ./cmd/udpbench -exp all -o docs/results-scale1.txt

# Paper-sized working sets (the headline geomeans converge here).
reproduce-paper:
	$(GO) run ./cmd/udpbench -exp all -scale 4 -o docs/results-scale4.txt

clean:
	$(GO) clean ./...
