GO ?= go

.PHONY: all build test verify vet vet-self bench race fuzz-smoke clean serve-smoke trace-check model-check e2e

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# serve-smoke builds ascoma-serve, starts it on an ephemeral port, hits
# /healthz, a figure endpoint twice (the second render must be a pure
# cache hit), and the async job API, and drains gracefully.
serve-smoke:
	$(GO) run ./cmd/ascoma-serve -smoke

# e2e drives an in-process multi-worker farm (e2e/harness) end to end:
# a grid job submitted to worker A renders as a figure on worker B with
# zero new simulations (peer-shared cache, then shared-disk), plus a load
# test pushing hundreds of concurrent jobs through two peered workers and
# asserting the measured /metrics hit rate.
e2e:
	$(GO) test -count=1 -v ./e2e/

# vet runs the stock go vet suite plus the repo's own analyzers. The
# standalone ascoma-vet invocation runs the whole-program checks first
# (hotpathflow, dirlint — the interprocedural call-graph
# engine of DESIGN.md §14, which also fails any escape hatch lacking a
# reason), then re-execs the per-package analyzers (nondet, hotpath,
# statsintegrity, ctxflow, errdrop) through the standard -vettool
# protocol. See DESIGN.md §9 and §14.
vet:
	$(GO) vet ./...
	$(GO) build -o .bin/ascoma-vet ./cmd/ascoma-vet
	.bin/ascoma-vet ./...

# vet-self turns the analyzer suite on its own implementation: the
# analysis packages must hold the same error-handling and directive
# discipline they enforce on the simulator.
vet-self:
	$(GO) build -o .bin/ascoma-vet ./cmd/ascoma-vet
	.bin/ascoma-vet ./internal/analysis/...

# trace-check proves flight-recorder determinism end to end through the
# real binaries: record the same observed run twice with ascoma-sim and
# require the trace files to be byte-identical, then decode one with
# ascoma-inspect so a codec regression fails loudly.
trace-check:
	$(GO) build -o .bin/ascoma-sim ./cmd/ascoma-sim
	$(GO) build -o .bin/ascoma-inspect ./cmd/ascoma-inspect
	.bin/ascoma-sim -arch ascoma -workload radix -pressure 70 -scale 16 -trace .bin/trace-a -epoch 5000 >/dev/null
	.bin/ascoma-sim -arch ascoma -workload radix -pressure 70 -scale 16 -trace .bin/trace-b -epoch 5000 >/dev/null
	cmp .bin/trace-a .bin/trace-b
	.bin/ascoma-inspect summary .bin/trace-a >/dev/null
	.bin/ascoma-sim -arch ascoma -workload radix -pressure 70 -scale 16 -tiers 30:40:60,70:120:300 -pagepolicy hybrid -trace .bin/trace-ta -epoch 5000 >/dev/null
	.bin/ascoma-sim -arch ascoma -workload radix -pressure 70 -scale 16 -tiers 30:40:60,70:120:300 -pagepolicy hybrid -trace .bin/trace-tb -epoch 5000 >/dev/null
	cmp .bin/trace-ta .bin/trace-tb
	.bin/ascoma-inspect summary .bin/trace-ta >/dev/null

# model-check validates the analytical steady-state estimator
# (internal/estimate) against the 72-config golden matrix: every cell is
# simulated and the relative-execution-time error must stay inside the
# documented per-architecture bounds (see modelBounds in
# internal/estimate/modelcheck_test.go). The -v run prints the tracked
# per-figure error summary.
model-check:
	$(GO) test -run '^TestModelCheck$$' -count=1 -v ./internal/estimate/

# verify is the pre-commit gate: vet (stock + ascoma-vet), build, the full
# test suite (including the golden determinism test), a short race-detector
# smoke over the internal packages, the estimator accuracy gate, the
# trace-determinism check, and the server smoke test.
verify: vet vet-self
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race -short ./internal/...
	$(MAKE) model-check
	$(MAKE) trace-check
	$(GO) run ./cmd/ascoma-serve -smoke

# bench runs the per-run and per-layer Go benchmarks with the flags the
# BENCH_PR*.json numbers were collected with. For a paired before/after
# comparison of the end-to-end workloads, run `bash perfbench/run.sh`
# (see perfbench/README.md and README.md, "Profiling and benchmarking").
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkFig2FFT$$|BenchmarkHotPath$$|BenchmarkGridRow$$' -benchtime 3x -count 3 .
	$(GO) test -run '^$$' -bench 'BenchmarkHotPathTiered$$' -benchtime 3x -count 3 .
	$(GO) test -run '^$$' -bench 'BenchmarkRowBuffer$$' -benchmem -count 3 ./internal/mem/
	$(GO) test -run '^$$' -bench 'BenchmarkEstimate$$|BenchmarkEstimateProfile$$|BenchmarkEstimateRequest$$' -benchmem -count 3 .
	$(GO) test -run '^$$' -bench 'BenchmarkStreamGeneration$$' -count 3 .

race:
	$(GO) test -race ./...

# fuzz-smoke runs each fuzz target briefly over its seeded corpus plus a
# few seconds of generated inputs — a CI-sized differential check that the
# compiled workload streams still match the interpreted reference, and
# that the reference-trace decoder never panics on outside input and
# round-trips everything it accepts.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzCompiledMatchesInterpreted -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzDecodeTrace -fuzztime 10s ./internal/workload

clean:
	$(GO) clean ./...
	rm -rf .bin
