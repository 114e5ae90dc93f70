GO ?= go

.PHONY: build test race vet fmt-check staticcheck check chaos recovery bench bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# fmt-check fails if any file needs gofmt (prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# staticcheck runs honnef.co/go/tools when the binary is on PATH and is a
# no-op otherwise, so `make check` works on machines that cannot install
# tools; CI installs it explicitly and therefore always gets the real run.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi

# check is the CI gate: static analysis plus the full suite under the race
# detector (internal/fact fans component sub-solves, cut sub-solves and
# multi-start iterations out on a shared worker pool, and plain `go test`
# never exercises that sharing for races).
check: vet staticcheck race

# chaos runs the fault-injection suite under the race detector: seeded,
# deterministic failure scenarios (deadline mid-search, shard panics,
# transient retries, injected cancellation) against internal/fact, the fault
# registry itself, and the server robustness surface (/readyz drain,
# timeout_ms clamping, degraded-response caching). See docs/ROBUSTNESS.md.
chaos:
	$(GO) test -race -run 'TestChaos|TestConstructionBudget|TestReadiness|TestSolveTimeout|TestSolveDeadline504|TestSolveDegraded|TestSolveDatasetGenerationRetry|TestSchedulerSaturated' \
		./internal/fact/ ./internal/server/ ./internal/solvecache/
	$(GO) test -race ./internal/fault/ ./internal/durable/

# recovery runs the durable-state suite under the race detector: the journal /
# checkpoint / snapshot unit tests plus the server recovery scenarios — torn
# journal tails, corrupt snapshots, mismatched-fingerprint checkpoints,
# snapshot-write failures — and the kill -9 harness, which re-execs the test
# binary as a real listening server, SIGKILLs it mid-search after the first
# checkpoint lands, and asserts the restarted server resumes the job from that
# checkpoint never worse than the incumbent it carried. See docs/ROBUSTNESS.md.
recovery:
	$(GO) test -race -run 'TestRecovery|TestReadyzRecovering' ./internal/server/
	$(GO) test -race ./internal/durable/

bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# bench-smoke runs the telemetry-overhead benchmark, a converged search and
# the construction benchmark once: a fast CI-grade check that the tabu hot
# path still builds and runs in all four telemetry states (absent / disabled
# / enabled / recorded under a request-shaped trace context), that a search
# to the solver's stopping rule still fast-forwards its final cycle
# (replayed-moves/op > 0), and that a construction-only solve of prepared
# 20k still runs. -benchmem keeps the per-run allocation profiles visible so
# regressions show up in the CI log. One iteration is too noisy for overhead
# numbers: rerun BenchmarkTabuTelemetry with -benchtime 5x -count 5 and
# compare the legs.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkTabuTelemetry|BenchmarkImproveConverge' -benchtime 1x -benchmem ./internal/tabu/
	$(GO) test -run xxx -bench BenchmarkConstruct -benchtime 1x -benchmem ./internal/fact/
