GO ?= go

.PHONY: build test race vet fmt-check staticcheck check chaos recovery bench bench-smoke fuzz-smoke paper

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
# never exercises that sharing for races). census.Generate transforms the
# attribute draws in GOMAXPROCS chunks at once, so the generated datasets
# are also checked byte for byte at GOMAXPROCS 1, 2 and 4.
check: vet staticcheck race
	$(GO) test -race -count=1 -cpu 1,2,4 -run TestGeneratedDatasetsByteIdentical ./internal/census/

# chaos runs the fault-injection suite under the race detector: seeded,
# deterministic failure scenarios (deadline mid-search, shard panics,
# transient retries, injected cancellation, the construction and cut-shard
# deadline slices) against internal/fact, the fault registry itself, and the
# server robustness surface (/readyz drain, timeout_ms clamping,
# degraded-response caching). See docs/ROBUSTNESS.md.
chaos:
	$(GO) test -race -run 'TestChaos|TestConstructionBudget|TestCutBudget|TestReadiness|TestSolveTimeout|TestSolveDeadline504|TestSolveDegraded|TestSolveDatasetGenerationRetry|TestSchedulerSaturated' \
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

# bench-smoke runs the telemetry-overhead benchmark, a converged search, the
# paper-scale search (the 50k1 seed-1 construction incumbent searched to the
# solver's stopping rule), the construction benchmark, contiguity
# extraction, cold 50k1 generation, and cold 20k generation at GOMAXPROCS 1
# and 2, once: a fast CI-grade check
# that the tabu hot path still builds and runs in all four telemetry states
# (absent / disabled / enabled / recorded under a request-shaped trace
# context), that a search to the solver's stopping rule still fast-forwards
# its final cycle (replayed-moves/op > 0), that a construction-only solve of
# prepared 20k still runs, and what rook and queen adjacency and a cold
# dataset cost. Generation transforms the attribute draws in GOMAXPROCS
# chunks at once, so the two 20k runs show what the parallel transform pass
# buys and that one processor does not pay for it. -benchmem keeps the per-run
# allocation profiles visible so regressions show up in the CI log:
# adjacency allocs/op stays a small constant at every size, so a count that
# grows with n means the kernel allocates per edge or per area again. One
# iteration is too noisy for overhead numbers: rerun BenchmarkTabuTelemetry
# with -benchtime 5x -count 5 and compare the legs.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkTabuTelemetry|BenchmarkImproveConverge|BenchmarkImprovePaperScale' -benchtime 1x -benchmem ./internal/tabu/
	$(GO) test -run xxx -bench BenchmarkConstruct -benchtime 1x -benchmem ./internal/fact/
	$(GO) test -run xxx -bench 'BenchmarkRookAdjacency|BenchmarkQueenAdjacency' -benchtime 1x -benchmem ./internal/geom/
	$(GO) test -run xxx -bench 'BenchmarkGenerate/50k1' -benchtime 1x -benchmem ./internal/census/
	$(GO) test -run xxx -bench 'BenchmarkGenerate/20k$$' -benchtime 1x -benchmem -cpu 1,2 ./internal/census/

# paper regenerates every table and figure of the evaluation, plus the
# ablation suite, at the paper's own dataset sizes (-scale 1, seed 1). It
# takes about 8 s on 2 vCPUs; TestAllRunnersSmoke runs the same experiments
# at scale 0.04.
paper:
	$(GO) run ./cmd/empbench -experiment all -scale 1

# fuzz-smoke runs every native fuzz target for 10 s beyond its seed corpus,
# which plain `go test` only replays: the constraint DSL, the shapefile
# readers, the traceparent header, the wire options, the two decoders that
# build a dataset from outside bytes (dataset JSON and GeoJSON), contiguity
# extraction against its map-based reference, the census layout's lattice
# contiguity against extraction from its polygons, the subset articulation
# pass (every donor-contiguity answer) against its map-based references, the
# cut planner on small graphs with finite, even overflowing, dissimilarities,
# and the three durable decoders (journal replay, cache snapshot, job
# checkpoint). go test fuzzes one target per run, hence one line per target.
# A failing input is written under the package's testdata/fuzz/ for replay.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/constraint/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSet$$' -fuzztime 10s ./internal/constraint/
	$(GO) test -run '^$$' -fuzz '^FuzzReadSHP$$' -fuzztime 10s ./internal/shapefile/
	$(GO) test -run '^$$' -fuzz '^FuzzReadDBF$$' -fuzztime 10s ./internal/shapefile/
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceparent$$' -fuzztime 10s ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzSolveOptions$$' -fuzztime 10s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 10s ./internal/data/
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s ./internal/geojson/
	$(GO) test -run '^$$' -fuzz '^FuzzAdjacency$$' -fuzztime 10s ./internal/geom/
	$(GO) test -run '^$$' -fuzz '^FuzzLatticeContiguity$$' -fuzztime 10s ./internal/census/
	$(GO) test -run '^$$' -fuzz '^FuzzSubsetArticulation$$' -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzNewCutPlan$$' -fuzztime 10s ./internal/shard/
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 10s ./internal/durable/
	$(GO) test -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime 10s ./internal/durable/
	$(GO) test -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime 10s ./internal/durable/
