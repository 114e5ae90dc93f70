GO ?= go

.PHONY: build test race vet fmt-check staticcheck check chaos recovery bench bench-smoke bench-tabu bench-obs bench-serve bench-fault bench-prep bench-jobs bench-recovery

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

# bench-smoke runs the telemetry-overhead benchmark once: a fast CI-grade
# check that the tabu hot path still builds and runs in all three telemetry
# states (absent / disabled / enabled). -benchmem keeps the per-run
# allocation profile visible so regressions show up in the CI log. Overhead
# numbers need bench-obs.
bench-smoke:
	$(GO) test -run xxx -bench BenchmarkTabuTelemetry -benchtime 1x -benchmem ./internal/tabu/

# bench-tabu regenerates BENCH_tabu.json (local-search before/after).
bench-tabu:
	$(GO) run ./cmd/empbench -benchtabu -scale 1

# bench-obs regenerates BENCH_obs.json (tabu throughput with telemetry
# off / on / full flight-recorder+tracing) and captures the full leg's span
# events as TRACE_obs.jsonl.
bench-obs:
	$(GO) run ./cmd/empbench -benchobs -scale 1

# bench-serve regenerates BENCH_serve.json (cold / hot-cache / deduped
# POST /solve throughput through the serving subsystem). The default scale
# keeps it CI-grade; see docs/SERVING.md for what the legs mean.
bench-serve:
	$(GO) run ./cmd/empbench -benchserve

# bench-fault regenerates BENCH_fault.json (graceful degradation under
# shrinking deadlines, shard-panic survival, transient-failure retries). The
# default scale keeps it CI-grade; see docs/ROBUSTNESS.md for the legs.
bench-fault:
	$(GO) run ./cmd/empbench -benchfault

# bench-jobs regenerates BENCH_jobs.json (async job API: sync vs async wall
# time, submit latency, time-to-first-incumbent vs convergence from the event
# stream, and the warm-start resubmit win in tabu moves). The default scale
# keeps it CI-grade; see docs/JOBS.md for what the legs mean.
bench-jobs:
	$(GO) run ./cmd/empbench -benchjobs

# bench-recovery regenerates BENCH_recovery.json (durable state: restored-boot
# snapshot hit rate and serve speedup, warm seeds surviving a restart, and the
# checkpoint-resume leg — tabu moves saved versus a cold re-solve with the
# never-worse incumbent check). The default scale keeps it CI-grade; see
# docs/ROBUSTNESS.md for what the legs mean.
bench-recovery:
	$(GO) run ./cmd/empbench -benchrecovery

# bench-prep regenerates BENCH_prep.json (prepared-dataset artifact: solve
# latency prepared vs unprepared, cold-request throughput, result identity,
# allocations per tabu move). The default scale keeps it CI-grade; see
# docs/PERFORMANCE.md for what the legs mean.
bench-prep:
	$(GO) run ./cmd/empbench -benchprep
