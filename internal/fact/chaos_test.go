package fact

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/fault"
	"emp/internal/obs"
	"emp/internal/solvecache"
)

// chaosSetup generates the suite's datasets and binds a private metrics
// registry so the robustness counters are observable; everything is restored
// on cleanup. The whole suite is seeded and deterministic — it runs under
// -race in CI (`make chaos`).
func chaosSetup(t *testing.T) (*data.Dataset, *data.Dataset, constraint.Set, *obs.Registry) {
	t.Helper()
	single, err := census.Generate(census.Options{Name: "chaos1", Areas: 400, States: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if single.Components() != 1 {
		t.Fatalf("chaos1 has %d components; the whole-graph tests need 1", single.Components())
	}
	multi, err := census.Generate(census.Options{Name: "chaos4", Areas: 400, States: 4, Components: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	set, err := constraint.ParseSet("SUM(TOTALPOP) >= 25000")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	reg.SetEnabled(true)
	SetMetrics(reg)
	t.Cleanup(func() { SetMetrics(nil) })
	t.Cleanup(func() { fault.Enable(nil) })
	return single, multi, set, reg
}

// fastShardRetries shrinks the shard retry backoff so chaos tests do not pay
// wall-time for the schedule they exercise.
func fastShardRetries(t *testing.T) {
	t.Helper()
	orig := shardRetryPolicy
	shardRetryPolicy.Base = time.Microsecond
	shardRetryPolicy.Max = time.Microsecond
	t.Cleanup(func() { shardRetryPolicy = orig })
}

func assignment(res *Result, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = res.Partition.Assignment(i)
	}
	return out
}

// TestChaosDeadlineMidSearchDegrades is acceptance criterion (a): a deadline
// that lands mid-Tabu yields a valid partition, Degraded set, and p/H no
// worse than the construction incumbent — the revert-to-best epilogue holds
// under deadline pressure. Injected per-epoch delays make the search slow so
// the deadline lands there deterministically, never inside construction.
func TestChaosDeadlineMidSearchDegrades(t *testing.T) {
	single, _, set, reg := chaosSetup(t)
	cfg := Config{Seed: 3, Iterations: 1}

	incumbent, err := Solve(single, set, Config{Seed: 3, Iterations: 1, SkipLocalSearch: true})
	if err != nil {
		t.Fatal(err)
	}

	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "tabu.epoch", Kind: fault.KindDelay, Delay: 50 * time.Millisecond, Times: 1 << 30},
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res, err := SolveCtx(ctx, single, set, cfg)
	fault.Enable(nil)
	if err != nil {
		t.Fatalf("deadline mid-search must degrade, not fail: %v", err)
	}
	if !res.Degraded {
		t.Fatal("Degraded = false after a deadline mid-search")
	}
	if len(res.Warnings) == 0 {
		t.Fatal("degraded result carries no warning")
	}
	if res.Partition == nil {
		t.Fatal("degraded result has no partition")
	}
	if res.P != incumbent.P {
		t.Errorf("p = %d, want the construction incumbent's %d (search never changes p)", res.P, incumbent.P)
	}
	if res.HeteroAfter > incumbent.HeteroAfter {
		t.Errorf("H = %g worse than the construction incumbent's %g", res.HeteroAfter, incumbent.HeteroAfter)
	}
	if got := reg.Counter("emp_solve_degraded_total", "").Value(); got != 1 {
		t.Errorf("emp_solve_degraded_total = %d, want 1", got)
	}
}

// TestChaosAnnealDeadlineDegrades covers the same contract for the annealing
// search: its revert-to-best epilogue must also hold under a deadline.
func TestChaosAnnealDeadlineDegrades(t *testing.T) {
	single, _, set, _ := chaosSetup(t)
	incumbent, err := Solve(single, set, Config{Seed: 3, Iterations: 1, SkipLocalSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "anneal.epoch", Kind: fault.KindDelay, Delay: 50 * time.Millisecond, Times: 1 << 30},
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res, err := SolveCtx(ctx, single, set, Config{Seed: 3, Iterations: 1, LocalSearch: LocalSearchAnneal})
	fault.Enable(nil)
	if err != nil {
		t.Fatalf("deadline mid-anneal must degrade, not fail: %v", err)
	}
	if !res.Degraded || res.Partition == nil {
		t.Fatalf("Degraded=%v Partition=%v, want degraded best-so-far", res.Degraded, res.Partition != nil)
	}
	if res.HeteroAfter > incumbent.HeteroAfter {
		t.Errorf("H = %g worse than the construction incumbent's %g", res.HeteroAfter, incumbent.HeteroAfter)
	}
}

// TestChaosShardPanicIsolated is acceptance criterion (b): a shard that
// panics on every attempt never crashes the process; the solve completes with
// that component's areas unassigned, a warning naming it, and Degraded set —
// while every other component is solved normally.
func TestChaosShardPanicIsolated(t *testing.T) {
	_, multi, set, reg := chaosSetup(t)
	fastShardRetries(t)

	clean, err := Solve(multi, set, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "shard.solve#1", Kind: fault.KindPanic, Times: 1 << 30},
	}})
	res, err := SolveCtx(context.Background(), multi, set, Config{Seed: 7})
	fault.Enable(nil)
	if err != nil {
		t.Fatalf("shard panic must not fail the solve: %v", err)
	}
	if !res.Degraded {
		t.Fatal("Degraded = false after losing a shard to panics")
	}
	found := false
	for _, w := range res.Warnings {
		if strings.Contains(w, "component 1") && strings.Contains(w, "unassigned") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no warning names the lost component: %v", res.Warnings)
	}
	if res.Unassigned <= clean.Unassigned {
		t.Errorf("unassigned = %d, want more than the clean solve's %d (component 1 lost)", res.Unassigned, clean.Unassigned)
	}
	if res.P >= clean.P || res.P == 0 {
		t.Errorf("p = %d, want 0 < p < clean %d (other components still solved)", res.P, clean.P)
	}
	// Attempts = shardRetryPolicy.Attempts panics recovered, attempts-1
	// retries beyond the first.
	if got := reg.Counter("emp_panics_recovered_total", "").Value(); got != 3 {
		t.Errorf("emp_panics_recovered_total = %d, want 3", got)
	}
	if got := reg.Counter("emp_shard_retries_total", "").Value(); got != 2 {
		t.Errorf("emp_shard_retries_total = %d, want 2", got)
	}
}

// TestChaosTransientRetrySucceeds is acceptance criterion (c): a shard that
// fails transiently once succeeds on retry with backoff, the retry counter
// moves, and the final result is byte-for-byte the clean solve.
func TestChaosTransientRetrySucceeds(t *testing.T) {
	_, multi, set, reg := chaosSetup(t)
	fastShardRetries(t)

	clean, err := Solve(multi, set, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "shard.solve#0", Kind: fault.KindError, Times: 1},
	}})
	res, err := SolveCtx(context.Background(), multi, set, Config{Seed: 7})
	fault.Enable(nil)
	if err != nil {
		t.Fatalf("transient shard failure must be retried, not fatal: %v", err)
	}
	if res.Degraded {
		t.Error("Degraded = true after a successful retry")
	}
	if got := reg.Counter("emp_shard_retries_total", "").Value(); got != 1 {
		t.Errorf("emp_shard_retries_total = %d, want 1", got)
	}
	if res.P != clean.P || res.HeteroAfter != clean.HeteroAfter {
		t.Fatalf("retried solve differs: p %d/%d H %g/%g", res.P, clean.P, res.HeteroAfter, clean.HeteroAfter)
	}
	if !reflect.DeepEqual(assignment(res, multi.N()), assignment(clean, multi.N())) {
		t.Error("retried solve produced a different assignment than the clean solve")
	}
}

// TestChaosConstructionPanicDiscardsIteration: a multi-start iteration that
// panics is discarded with a warning; the remaining iterations still produce
// the solve, sequentially and in parallel.
func TestChaosConstructionPanicDiscardsIteration(t *testing.T) {
	single, _, set, reg := chaosSetup(t)
	for _, slots := range []int{1, 4} {
		// Iteration 1's first sweep check panics once; iterations 0, 2, 3
		// proceed. (The sweep site is hit many times per iteration, so After
		// counts whole-solve hits; Times:1 with a one-slot pool pins the
		// panic to exactly one iteration. With four slots the hit order
		// interleaves, but exactly one iteration still dies.)
		fault.Enable(&fault.Plan{Rules: []fault.Rule{
			{Site: "fact.construct.sweep", Kind: fault.KindPanic, Times: 1},
		}})
		res, err := SolveCtx(context.Background(), single, set,
			Config{Seed: 3, Iterations: 4, Pool: solvecache.NewPool(slots), SkipLocalSearch: true})
		fault.Enable(nil)
		if err != nil {
			t.Fatalf("pool %d: construction panic must not fail the solve: %v", slots, err)
		}
		if res.Iterations != 3 {
			t.Errorf("pool %d: iterations = %d, want 3 (one discarded)", slots, res.Iterations)
		}
		found := false
		for _, w := range res.Warnings {
			if strings.Contains(w, "discarded") {
				found = true
			}
		}
		if !found {
			t.Errorf("pool %d: no discard warning: %v", slots, res.Warnings)
		}
	}
	if got := reg.Counter("emp_panics_recovered_total", "").Value(); got != 2 {
		t.Errorf("emp_panics_recovered_total = %d, want 2 (one per leg)", got)
	}
}

// TestChaosShardRetriesExhaustedDegrades: a shard failing transiently on
// every attempt is dropped after the policy's attempts, not retried forever
// and not fatal.
func TestChaosShardRetriesExhaustedDegrades(t *testing.T) {
	_, multi, set, reg := chaosSetup(t)
	fastShardRetries(t)
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "shard.solve#2", Kind: fault.KindError, Times: 1 << 30},
	}})
	res, err := SolveCtx(context.Background(), multi, set, Config{Seed: 7})
	fault.Enable(nil)
	if err != nil {
		t.Fatalf("exhausted retries must degrade, not fail: %v", err)
	}
	if !res.Degraded {
		t.Fatal("Degraded = false after dropping a shard")
	}
	if got := reg.Counter("emp_shard_retries_total", "").Value(); got != 2 {
		t.Errorf("emp_shard_retries_total = %d, want 2 (3 attempts)", got)
	}
}

// TestChaosCancellationStillFails pins the semantics split: explicit
// cancellation (the caller walked away) always fails, even when an incumbent
// exists that a deadline would have served.
func TestChaosCancellationStillFails(t *testing.T) {
	single, _, set, _ := chaosSetup(t)
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "tabu.epoch", Kind: fault.KindDelay, Delay: 20 * time.Millisecond, Times: 1 << 30},
	}})
	defer fault.Enable(nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	res, err := SolveCtx(ctx, single, set, Config{Seed: 3, Iterations: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled solve must not return a result")
	}
}

// TestChaosPreIncumbentDeadlineFails: a deadline spent before any
// construction iteration completes has nothing to degrade to and must fail
// wrapping context.DeadlineExceeded.
func TestChaosPreIncumbentDeadlineFails(t *testing.T) {
	single, _, set, _ := chaosSetup(t)
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "fact.construct.sweep", Kind: fault.KindDelay, Delay: 30 * time.Millisecond, Times: 1 << 30},
	}})
	defer fault.Enable(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	res, err := SolveCtx(ctx, single, set, Config{Seed: 3, Iterations: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Error("failed solve must not return a result")
	}
}

// TestChaosInjectedDeadlineMidConstruction: an injected deadline (KindCancel)
// at a construction sweep degrades like a real one — the incumbent from the
// completed iterations is served without local search.
func TestChaosInjectedDeadlineMidConstruction(t *testing.T) {
	single, _, set, _ := chaosSetup(t)
	// Iteration 0 completes clean (one iteration hits the sweep site ~500
	// times on 400 areas, well under After); the rule then cancels a later
	// iteration mid-flight. The solve must serve the completed iterations'
	// incumbent without local search, degraded — never fail.
	incumbent, err := Solve(single, set, Config{Seed: 3, Iterations: 1, SkipLocalSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "fact.construct.sweep", Kind: fault.KindCancel, After: 1000, Times: 1 << 30},
	}})
	res, err := SolveCtx(context.Background(), single, set,
		Config{Seed: 3, Iterations: 8, Pool: solvecache.NewPool(1)})
	fault.Enable(nil)
	if err != nil {
		t.Fatalf("injected deadline with an incumbent must degrade, not fail: %v", err)
	}
	if !res.Degraded {
		t.Fatal("Degraded = false after an injected construction deadline")
	}
	if res.Iterations < 1 || res.Iterations >= 8 {
		t.Errorf("iterations = %d, want at least 1 and fewer than requested", res.Iterations)
	}
	// Multi-start keeps the best of the completed iterations, which can only
	// match or beat iteration 0's incumbent under the (p desc, H asc) order.
	if res.P < incumbent.P || (res.P == incumbent.P && res.HeteroAfter > incumbent.HeteroAfter) {
		t.Errorf("result p=%d H=%g worse than the iteration-0 incumbent p=%d H=%g",
			res.P, res.HeteroAfter, incumbent.P, incumbent.HeteroAfter)
	}
	found := false
	for _, w := range res.Warnings {
		if strings.Contains(w, "deadline exceeded during construction") {
			found = true
		}
	}
	if !found {
		t.Errorf("no construction-deadline warning: %v", res.Warnings)
	}
}

// TestChaosDisabledInjectionIsIdentical is acceptance criterion (d): with
// injection disabled — and equally with a plan armed whose rules never fire —
// the solve is identical to the clean run: the instrumentation has no
// observable effect of its own.
func TestChaosDisabledInjectionIsIdentical(t *testing.T) {
	_, multi, set, _ := chaosSetup(t)
	cfg := Config{Seed: 7, Iterations: 2}
	fault.Enable(nil)
	clean, err := Solve(multi, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Armed but inert: rules exist for every site, none ever fires.
	never := 1 << 60
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "fact.construct.sweep", Kind: fault.KindPanic, After: never},
		{Site: "shard.solve", Kind: fault.KindError, After: never},
		{Site: "tabu.epoch", Kind: fault.KindCancel, After: never},
		{Site: "anneal.epoch", Kind: fault.KindCancel, After: never},
		{Site: "census.generate", Kind: fault.KindError, After: never},
	}})
	armed, err := Solve(multi, set, cfg)
	fault.Enable(nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.P != armed.P || clean.HeteroAfter != armed.HeteroAfter ||
		clean.Iterations != armed.Iterations || clean.Degraded != armed.Degraded ||
		len(clean.Warnings) != len(armed.Warnings) {
		t.Fatalf("armed-but-inert run differs: %+v vs %+v", clean, armed)
	}
	if !reflect.DeepEqual(assignment(clean, multi.N()), assignment(armed, multi.N())) {
		t.Error("armed-but-inert run produced a different assignment")
	}
}

// TestConstructionBudgetLeavesSearchTime pins the budget allocator: with many
// slow construction iterations under a deadline, the construction phase stops
// at its half-budget slice (a budget warning, Degraded) instead of eating the
// whole deadline, and the local search still runs.
func TestConstructionBudgetLeavesSearchTime(t *testing.T) {
	single, _, set, _ := chaosSetup(t)
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		// After skips iteration 0's ~500 sweep hits, so the incumbent is
		// built at full speed under the parent deadline; every re-roll then
		// pays ~2ms per sweep hit (~1s per iteration), so the half-budget
		// slice expires long before the 64 requested iterations finish.
		{Site: "fact.construct.sweep", Kind: fault.KindDelay, Delay: 2 * time.Millisecond, After: 700, Times: 1 << 30},
	}})
	defer fault.Enable(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res, err := SolveCtx(ctx, single, set, Config{Seed: 3, Iterations: 64, Pool: solvecache.NewPool(1)})
	if err != nil {
		t.Fatalf("budgeted construction must degrade, not fail: %v", err)
	}
	if !res.Degraded {
		t.Fatal("Degraded = false after the construction budget cut the re-rolls")
	}
	if res.Iterations >= 64 {
		t.Errorf("iterations = %d, want fewer than requested (budget cut)", res.Iterations)
	}
	if res.Iterations < 1 {
		t.Errorf("iterations = %d, want at least the incumbent", res.Iterations)
	}
	found := false
	for _, w := range res.Warnings {
		if strings.Contains(w, "budget") || strings.Contains(w, "deadline") {
			found = true
		}
	}
	if !found {
		t.Errorf("no budget/deadline warning: %v", res.Warnings)
	}
}

// TestCutBudgetLeavesSeamRepairTime pins the cut pipeline's budget split:
// with every search move slowed down under a deadline, the cut sub-solves
// stop at their 85% slice instead of running to the deadline, so the seam
// repair still gets time to search and the degraded result carries seam
// moves.
func TestCutBudgetLeavesSeamRepairTime(t *testing.T) {
	single, _, set, _ := chaosSetup(t)
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		// ~2ms per accepted move: each sub-solve's search alone would
		// outlast the deadline.
		{Site: "tabu.epoch", Kind: fault.KindDelay, Delay: 2 * time.Millisecond, Times: 1 << 30},
	}})
	defer fault.Enable(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	res, err := SolveCtx(ctx, single, set, Config{Seed: 3, CutShards: 4})
	if err != nil {
		t.Fatalf("budgeted cut solve must degrade, not fail: %v", err)
	}
	if res.CutShards < 2 {
		t.Fatalf("CutShards = %d, want a real cut", res.CutShards)
	}
	if !res.Degraded {
		t.Fatal("Degraded = false after the deadline cut the sub-solves")
	}
	if res.SeamMoves == 0 {
		t.Errorf("seam repair made no moves in %v: the sub-solves spent its budget", res.SeamRepairTime)
	}
	t.Logf("seam repair: %d moves in %v", res.SeamMoves, res.SeamRepairTime)
}
