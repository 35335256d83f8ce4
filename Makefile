# Tier-1: the build/test gate every change must keep green.
.PHONY: test
test:
	go build ./...
	go test ./...

# Tier-1.5: race-detector pass over the concurrency-bearing packages.
# The run-loop contract test (internal/engine) and the pooled walk's
# determinism property tests (including the golden-trace and tracing
# observer-effect matrices) run the full worker matrix under -race
# here; slower than tier-1, so a separate target. The wire layer and its
# endpoints are in it because the pooled walk's race freedom rests on
# their slot discipline: a wire's producer and consumer touch different
# cycle-parity slots and flag banks within one phase, without atomics.
.PHONY: race
race:
	go test -race ./internal/engine/... ./internal/platform/... ./internal/probe/... ./internal/monitor/... ./internal/dse/... ./internal/serve/... ./cmd/nocserve/... \
		./internal/link/... ./internal/switchfab/... ./internal/nic/... ./internal/fault/... ./internal/tlm/...

# Full race sweep (everything, including the root-package experiment
# tests). Slow; for pre-release checks.
.PHONY: race-all
race-all:
	go test -race ./...

# The repository benchmark (bench/README.md, BENCHMARK.json): all seven
# workloads, untraced then traced, each in a child process, into
# bench/out/results.json — the artifact CI uploads. Compare two result
# files with `go run ./bench -compare old.json new.json`.
.PHONY: bench
bench:
	go run ./bench -seed 1

.PHONY: vet
vet:
	go vet ./...
	gofmt -l .

# Short fuzz pass over the serialization codecs: the trace JSONL codec
# (encode -> decode -> re-encode must be lossless; the golden-trace
# fixtures rest on byte-stable re-encoding), the snapshot framing
# codec (arbitrary section payloads must round-trip, and mutated
# headers must be rejected, never crash), and the strict serve-protocol
# decoder (no panic on garbage; accepted frames survive a wire round
# trip), and every traffic model's snapshot and register face (a
# restore either fails or re-saves to its input and runs; a register
# write is accepted exactly when the constructor accepts the result),
# and the switch's snapshot face (a restore either fails or re-saves to
# its input and ticks).
# The corpora grow under each package's testdata over time; `make fuzz`
# explores for a few seconds beyond them.
.PHONY: fuzz
fuzz:
	go test -run FuzzTraceRoundTrip -fuzz FuzzTraceRoundTrip -fuzztime 5s ./internal/probe
	go test -run FuzzSnapshotRoundTrip -fuzz FuzzSnapshotRoundTrip -fuzztime 5s ./internal/state
	go test -run FuzzServeRequest -fuzz FuzzServeRequest -fuzztime 5s ./internal/serve
	go test -run FuzzGeneratorState -fuzz FuzzGeneratorState -fuzztime 5s ./internal/traffic
	go test -run FuzzSwitchState -fuzz FuzzSwitchState -fuzztime 5s ./internal/switchfab

# Coverage profile for CI: runs tier-1 tests with -coverprofile and
# prints the per-function summary tail (total coverage) to the log.
.PHONY: cover
cover:
	go test -coverprofile=coverage.out ./...
	go tool cover -func=coverage.out | tail -n 1

# Register-map documentation: regenerate REGISTERS.md from the live
# schema, and fail when the committed file has drifted from it.
.PHONY: regs
regs:
	go run ./cmd/nocgen regs > REGISTERS.md

.PHONY: regs-check
regs-check:
	@go run ./cmd/nocgen regs | diff -u REGISTERS.md - \
		|| { echo "REGISTERS.md is stale: run 'make regs'"; exit 1; }

# Topology/workload catalog: regenerate TOPOLOGIES.md from the live
# generator and workload registries, and fail when the committed file
# has drifted from them.
.PHONY: topos
topos:
	go run ./cmd/nocgen topos > TOPOLOGIES.md

.PHONY: topos-check
topos-check:
	@go run ./cmd/nocgen topos | diff -u TOPOLOGIES.md - \
		|| { echo "TOPOLOGIES.md is stale: run 'make topos'"; exit 1; }

# Co-simulation service smoke: nocserve end to end over stdio (with a
# park/restart/resume across two server processes) and HTTP, checking
# nonzero latency answers and a clean SIGTERM shutdown. The transcript
# lands in serve-smoke/ (CI uploads it as an artifact).
.PHONY: serve-smoke
serve-smoke:
	sh scripts/serve_smoke.sh

# Line count, the ROADMAP's "goes down" bar as one command: non-test Go
# lines per internal/* package and cmd/* binary and in total, leaving
# out bench/, examples/ and *_test.go.
.PHONY: loc
loc:
	@for d in internal/* cmd/*; do \
		printf '%6d %s\n' "$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" $$d; \
	done
	@printf '%6d total\n' "$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './examples/*' -exec cat {} + | wc -l)"

# One-stop pre-commit gate: build, tests, vet, the codec fuzz smokes
# (trace JSONL + snapshot framing), the REGISTERS.md and TOPOLOGIES.md
# drift checks, and a gofmt check that fails (not just lists) when any
# file is unformatted.
.PHONY: check
check: test vet fuzz regs-check topos-check
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi
