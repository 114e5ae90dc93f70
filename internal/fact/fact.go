package fact

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/flight"
	"emp/internal/prep"
	"emp/internal/region"
	"emp/internal/shard"
	"emp/internal/solvecache"
	"emp/internal/tabu"
)

// ErrInfeasible is returned (wrapped) when the feasibility phase proves no
// region can satisfy the constraint set on the dataset. The Result still
// carries the Feasibility report so callers can show the reasons.
var ErrInfeasible = errors.New("fact: no feasible solution exists for the given constraints")

// Order selects the area pickup criteria used by the construction phase.
type Order int

const (
	// OrderRandom shuffles areas per iteration (the paper's default).
	OrderRandom Order = iota
	// OrderAscending processes areas by ascending id.
	OrderAscending
	// OrderDescending processes areas by descending id.
	OrderDescending
)

// String names the order for reports.
func (o Order) String() string {
	switch o {
	case OrderRandom:
		return "random"
	case OrderAscending:
		return "ascending"
	case OrderDescending:
		return "descending"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// Config tunes the FaCT algorithm. The zero value is usable: every field
// falls back to the paper's defaults (Section VII-A).
type Config struct {
	// MergeLimit bounds the merge trials per area in Substep 2.2 round 2.
	// 0 means the paper default of 3.
	MergeLimit int
	// Iterations is the number of construction iterations; the partition
	// with the highest p is kept. 0 means 1.
	Iterations int
	// TabuLength is the tabu tenure. 0 means the paper default of 10.
	TabuLength int
	// MaxNoImprove stops the local search after this many moves without
	// improving the best heterogeneity. 0 means the dataset size.
	MaxNoImprove int
	// SkipLocalSearch disables the Tabu phase (construction only).
	SkipLocalSearch bool
	// Order selects the area pickup criteria.
	Order Order
	// Seed drives the random choices; runs are reproducible per seed.
	Seed int64
	// Objective overrides the local-search optimization target; nil means
	// the paper's heterogeneity H(P). See tabu.Objective for alternatives
	// (spatial compactness, weighted multi-criteria).
	Objective tabu.Objective
	// CutShards, when >= 2, opts the solve into cut-based sharding: the
	// dataset is sliced into up to CutShards balanced sub-instances along
	// low-connectivity cuts (shard.NewCutPlan), the sub-instances are solved
	// concurrently, and a boundary-repair pass fixes the stitch seams. Unlike
	// component sharding the cut changes the search trajectory, so results
	// differ from the whole-graph solve (the knob is fingerprinted by the
	// serving layer); they are still deterministic per (dataset, constraints,
	// config) and independent of the Pool size. 0 (the default) and 1 leave
	// the solve on its normal path. See docs/SHARDING.md.
	CutShards int
	// Pool bounds every fan-out of the solve: component sub-solves, cut
	// sub-solves and construction multi-start iterations. nil means a private
	// pool of GOMAXPROCS slots. Servers share one pool across concurrent
	// requests so the aggregate fan-out respects one global budget. Results
	// never depend on the pool size: every fan-out merges in index order, not
	// completion order.
	Pool *solvecache.Pool
	// Prepared, when non-nil and built from the same dataset the solve runs
	// on, supplies the prepared-dataset artifact: the dissimilarity matrix,
	// heterogeneity rank kernel, CSR graph, shard plans and scratch pools it
	// holds are reused instead of rebuilt. Without it (or with an artifact
	// prepared from a different dataset, which is ignored) the solve prepares
	// a private one after phase 1, so every solve runs prepared; results are
	// identical either way (a differential test pins this). Servers pass
	// their cached artifact so repeated requests on a dataset share one. See
	// internal/prep.
	Prepared *prep.Artifact
	// WarmStart, when its length equals the dataset size, seeds the first
	// construction iteration from a prior assignment (area index → region
	// label, -1 unassigned) instead of growing regions from scratch: each
	// label's areas become seed regions (split into connected pieces, invalid
	// areas dropped), regions violating the new constraint set's AVG range
	// dissolve, and the standard enclave-assignment, extrema-combination and
	// counting-adjustment repairs run. Under the seed's own constraint set
	// the warm iteration reproduces the seed partition, so the solve is never
	// worse than its seed (pinned by a differential test); under a perturbed
	// set it repairs only what broke. Re-roll iterations (Iterations > 1)
	// stay cold, preserving multi-start diversity. The solve only reads the
	// slice, so callers may pass a shared one. In-process only (the async
	// jobs layer wires it from answers in the server's result cache): it has
	// no wire form and never participates in cache fingerprints. Ignored —
	// with the label indexing this implies — by cut- and component-sharded
	// sub-solves, whose areas index their shard, not the whole dataset.
	WarmStart []int
}

// pool returns the configured worker pool, or a private GOMAXPROCS-slot pool.
func (c *Config) pool() *solvecache.Pool {
	if c.Pool != nil {
		return c.Pool
	}
	return solvecache.NewPool(0)
}

func (c Config) withDefaults(n int) Config {
	if c.MergeLimit == 0 {
		c.MergeLimit = 3
	}
	if c.Iterations == 0 {
		c.Iterations = 1
	}
	if c.TabuLength == 0 {
		c.TabuLength = 10
	}
	if c.MaxNoImprove == 0 {
		c.MaxNoImprove = n
	}
	return c
}

// Result is the outcome of a FaCT run.
type Result struct {
	// Partition is the final solution; nil when infeasible.
	Partition *region.Partition
	// Feasibility is the phase-1 report (always present).
	Feasibility *Feasibility
	// P is the number of regions.
	P int
	// Unassigned is |U0|.
	Unassigned int
	// HeteroBefore and HeteroAfter record H(P) before and after the local
	// search phase.
	HeteroBefore, HeteroAfter float64
	// FeasibilityTime, ConstructionTime and LocalSearchTime are the phase
	// wall times.
	FeasibilityTime                   time.Duration
	ConstructionTime, LocalSearchTime time.Duration
	// TabuMoves is the number of accepted local-search moves.
	TabuMoves int
	// Improvements is the number of local-search new-best events.
	Improvements int
	// Search profiles the local-search hot path (candidate evaluations,
	// heap churn, tabu rejections, removability passes).
	Search tabu.Counters
	// Iterations is the number of construction iterations executed (summed
	// over shards for sharded solves).
	Iterations int
	// Shards is the number of sub-solves (connected components, or cut
	// shards in cut mode); 0 when the solve ran on the whole dataset
	// (single component).
	Shards int
	// CutShards is the number of cut-partition sub-instances the solve was
	// decomposed into; 0 when cut sharding was off or did not engage.
	CutShards int
	// SeamMoves counts the boundary-repair pass's accepted moves (cut mode
	// only); they are included in TabuMoves as well.
	SeamMoves int
	// SeamRepairTime is the wall time of the boundary-repair pass (cut mode
	// only); it is included in LocalSearchTime as well.
	SeamRepairTime time.Duration
	// Warnings lists solve-level findings beyond the feasibility report,
	// e.g. components proven individually infeasible whose areas were left
	// unassigned, or phases cut short by a deadline.
	Warnings []string
	// Degraded marks a best-effort result: the solve hit its deadline after
	// construction (the partition is the best incumbent found, all regions
	// valid, but the search did not converge), or one or more shards were
	// lost to panics or exhausted retries (their areas are unassigned). A
	// degraded result always carries at least one Warnings entry saying why.
	Degraded bool
}

// HeteroImprovement returns the relative improvement of the local search:
// |before-after| / before (0 when before is 0), the measure reported
// throughout the paper's evaluation.
func (r *Result) HeteroImprovement() float64 {
	if r.HeteroBefore == 0 {
		return 0
	}
	return (r.HeteroBefore - r.HeteroAfter) / r.HeteroBefore
}

// finish records the final partition and the headline numbers read off it.
func (r *Result) finish(p *region.Partition) {
	r.Partition = p
	r.P = p.NumRegions()
	r.HeteroAfter = p.Heterogeneity()
	r.Unassigned = p.UnassignedCount()
}

// Solve runs the three FaCT phases on the dataset under the constraint set.
// It returns ErrInfeasible (wrapped, with the report in Result) when phase 1
// proves infeasibility.
func Solve(ds *data.Dataset, set constraint.Set, cfg Config) (*Result, error) {
	return SolveCtx(context.Background(), ds, set, cfg)
}

// canceled wraps a context error so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) hold for callers.
func canceled(err error) error {
	return fmt.Errorf("fact: solve canceled: %w", err)
}

// SolveCtx is Solve with cooperative cancellation: the context is checked
// between construction sweeps and local-search iterations (see
// tabu.Config.Ctx), so a cancelled solve returns within one check interval
// instead of running to completion. On cancellation the error wraps
// ctx.Err() and the Result is nil; no partial partition escapes.
//
// Deadlines degrade instead of failing: when the context carries a deadline
// that expires after construction produced an incumbent, SolveCtx returns
// that incumbent (improved as far as the search got — the search ends at its
// best visited state) with Result.Degraded set and a warning, not an error.
// A deadline that expires before any construction iteration completes still
// fails, wrapping context.DeadlineExceeded: there is no partition to degrade
// to. Explicit cancellation (context.Canceled) always fails — a caller that
// walked away is not served a partial answer. The per-phase budget split is
// described in docs/ROBUSTNESS.md.
//
// When the contiguity graph has more than one connected component the solve
// is sharded: each component is an independent sub-instance (regions never
// span components), solved concurrently and merged in component order.
//
// Every path shares this pipeline: phase 1, the prepared artifact
// (cfg.Prepared or a private one), the whole, component or cut body, then
// the solve counters, the solve event and the recorder's final sample, once
// per call. Shard sub-solves never come back through here.
func SolveCtx(ctx context.Context, ds *data.Dataset, set constraint.Set, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ds.N() == 0 {
		return nil, fmt.Errorf("fact: empty dataset")
	}
	ev, err := constraint.NewEvaluator(set, ds.Column)
	if err != nil {
		return nil, err
	}
	// Root solve span: one per SolveCtx call. It feeds the emp_solve_duration
	// histogram and anchors the trace — every phase/shard/search span below
	// becomes a descendant through the derived context.
	solveSpan, ctx := met.spanSolve.StartCtx(ctx)
	defer solveSpan.End()
	// Phase 1 on the whole dataset: dataset-level infeasibility
	// short-circuits every path, and every shard, at once.
	res, err := analyze(ctx, ds, ev)
	if errors.Is(err, ErrInfeasible) {
		met.solves.Inc()
		met.infeasible.Inc()
	}
	if err != nil {
		return res, err
	}
	// The artifact's structures index by the dataset's area ids, so only
	// one prepared from this very dataset (pointer identity) is usable.
	art := cfg.Prepared
	if art == nil || art.Dataset() != ds {
		if art, err = prep.New(ds); err != nil {
			return nil, err
		}
	}
	switch {
	case cfg.CutShards > 1:
		err = solveCut(ctx, art, set, ev, cfg, res)
	case ds.Components() > 1:
		err = solveSharded(ctx, art, set, ev, cfg, res)
	default:
		err = solveWhole(ctx, art, ev, cfg, cfg.pool(), res)
	}
	if err != nil {
		return nil, err
	}
	if res.Degraded {
		met.degraded.Inc()
	}
	met.solves.Inc()
	emitSolveEvent(res)
	// Final curve point: the (p, H) the caller's response reports.
	flight.FromContext(ctx).Finish(res.P, res.HeteroAfter)
	return res, nil
}

// analyze runs phase 1 under its span and returns the Result every path
// fills in, holding the feasibility report and its wall time. An infeasible
// instance also returns an error wrapping ErrInfeasible; any other error
// comes with a nil Result.
func analyze(ctx context.Context, ds *data.Dataset, ev *constraint.Evaluator) (*Result, error) {
	flight.FromContext(ctx).SetPhase(flight.PhaseFeasibility)
	span, _ := met.spanFeas.StartCtx(ctx)
	feas, err := Analyze(ds, ev)
	d := span.End()
	if err != nil {
		return nil, err
	}
	res := &Result{Feasibility: feas, FeasibilityTime: d}
	if !feas.Feasible {
		return res, fmt.Errorf("%w: %v", ErrInfeasible, feas.Reasons)
	}
	return res, nil
}

// solveWhole runs phases 2 and 3 on the artifact's dataset as one instance
// and fills res, which already holds the phase-1 report. pool runs the
// multi-start iterations; nil runs them on this goroutine, as does a single
// iteration, which has nothing to overlap. Shard sub-solves pass nil: they
// already hold a pool slot, and acquiring another could deadlock a shared
// pool. The flight recorder needs no such care: the shard runner hands
// sub-solves a context without one, so every sample recorded here describes
// the whole problem.
func solveWhole(ctx context.Context, art *prep.Artifact, ev *constraint.Evaluator, cfg Config, pool *solvecache.Pool, res *Result) error {
	ds := art.Dataset()
	cfg = cfg.withDefaults(ds.N())
	rec := flight.FromContext(ctx)

	// Phase 2: construction, keeping the partition with the highest p
	// (ties broken by lower heterogeneity, then by iteration index so
	// parallel and sequential runs pick the same winner). The first
	// iteration runs under the caller's full deadline (it produces the
	// incumbent everything degrades to); re-roll iterations run under the
	// construction budget slice so a deadline leaves room for the search.
	rec.SetPhase(flight.PhaseConstruction)
	consSpan, _ := met.spanCons.StartCtx(ctx)
	candidates := make([]*region.Partition, cfg.Iterations)
	panicMsgs := make([]string, cfg.Iterations)
	consCtx, consCancel := budgetCtx(ctx, constructionBudgetFrac)
	defer consCancel()
	iterCtx := func(it int) context.Context {
		if it == 0 {
			return ctx
		}
		return consCtx
	}
	// Warm starting engages only on the first iteration (the one under the
	// full deadline): it is the "resume from the prior incumbent" slot, while
	// re-rolls keep their cold multi-start diversity. A WarmStart of the
	// wrong length is ignored wholesale — it indexes a different dataset.
	warmOK := len(cfg.WarmStart) == ds.N()
	if cfg.Iterations == 1 {
		pool = nil
	}
	errs := make([]error, cfg.Iterations)
	// stop ends admission after an iteration fails for a reason other than
	// its own panic, as a deadline or cancellation would.
	var stop atomic.Bool
	// Run can only fail with ctx's own error, which the checks below settle.
	_ = shard.Run(ctx, cfg.Iterations, pool, func(it int) error {
		ic := iterCtx(it)
		if stop.Load() || ic.Err() != nil {
			return nil
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(it)))
		candidates[it], errs[it] = safeConstruct(ic, art, ev, res.Feasibility, &cfg, rng, warmOK && it == 0)
		if errs[it] != nil && !errors.Is(errs[it], errConstructPanic) {
			stop.Store(true)
		}
		return nil
	})
	var firstErr error
	var deadlineHit bool // a (possibly injected) deadline stopped an iteration
	for it, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, errConstructPanic):
			// One multi-start iteration died; the others still count.
			panicMsgs[it] = fmt.Sprintf("construction iteration %d discarded: %v", it, err)
		case errors.Is(err, context.DeadlineExceeded):
			// A hit, unless only the construction budget slice expired: that
			// stops the re-rolls but the overall deadline still funds the
			// search.
			if ctx.Err() != nil || consCtx == ctx || consCtx.Err() == nil {
				deadlineHit = true
			}
		case errors.Is(err, context.Canceled):
			// the ctx.Err() check below settles the outcome
		default:
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		// Explicit cancellation: the caller walked away, nothing is served.
		return canceled(err)
	}
	for _, msg := range panicMsgs {
		if msg != "" {
			res.Warnings = append(res.Warnings, msg)
		}
	}
	var best *region.Partition
	for _, p := range candidates {
		if p == nil {
			continue
		}
		res.Iterations++
		if best == nil || p.NumRegions() > best.NumRegions() ||
			(p.NumRegions() == best.NumRegions() && p.Heterogeneity() < best.Heterogeneity()) {
			best = p
		}
	}
	res.ConstructionTime = consSpan.End()
	// Multi-start losers return their pooled state (Fenwick trees, graph
	// scratch) to the artifact before being dropped.
	for _, p := range candidates {
		if p != nil && p != best {
			p.Recycle()
		}
	}
	if best == nil {
		// Nothing constructed: a spent deadline (real or injected) before
		// the first incumbent, or every iteration panicked.
		if err := ctx.Err(); err != nil {
			return canceled(err)
		}
		if deadlineHit {
			return canceled(context.DeadlineExceeded)
		}
		return fmt.Errorf("fact: construction produced no partition (every iteration failed): %s",
			firstNonEmpty(panicMsgs))
	}
	res.HeteroBefore = best.Heterogeneity()
	// The construction incumbent is the first curve point: everything the
	// search does improves on it. It is also the first checkpointable
	// assignment — a crash during a long search resumes from at least here.
	rec.Improve(best.NumRegions(), res.HeteroBefore, 0, best.DenseAssignment)
	if consCtx != ctx && consCtx.Err() != nil && ctx.Err() == nil &&
		!deadlineHit && res.Iterations < cfg.Iterations {
		// The construction budget slice ran out with the overall deadline
		// still alive: fewer re-rolls than asked for, best-of-what-ran.
		res.Degraded = true
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"construction budget exhausted after %d of %d iterations; continuing with the best incumbent", res.Iterations, cfg.Iterations))
	}

	// Phase 3: Tabu search on the configured objective. A deadline spent
	// during construction skips the search and serves the incumbent
	// directly.
	skipSearch := cfg.SkipLocalSearch || best.NumRegions() <= 1
	if deadlineHit || ctx.Err() != nil {
		skipSearch = true
		res.Degraded = true
		res.Warnings = append(res.Warnings,
			"deadline exceeded during construction; returning the construction-phase incumbent without local search")
	}
	if !skipSearch {
		rec.SetPhase(flight.PhaseSearch)
		// searchCtx carries the phase span's identity, so the tabu span
		// nests under it; cancellation semantics are untouched (the derived
		// context shares ctx's Done channel).
		searchSpan, searchCtx := met.spanSearch.StartCtx(ctx)
		stats := tabu.Improve(best, tabu.Config{
			Objective:    cfg.Objective,
			Tenure:       cfg.TabuLength,
			MaxNoImprove: cfg.MaxNoImprove,
			Ctx:          searchCtx,
		})
		res.TabuMoves = stats.Moves
		res.Improvements = stats.Improvements
		res.Search = stats.Counters
		res.LocalSearchTime = searchSpan.End()
		if err := ctx.Err(); err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				// The search stopped early at a consistent state, but a
				// cancelled solve must not be mistaken for a completed one.
				return canceled(err)
			}
			// Deadline mid-search: the search ends at the best state
			// visited (revert-to-best epilogue), so the partition is valid
			// and no worse than the construction incumbent.
			res.Degraded = true
			res.Warnings = append(res.Warnings,
				"deadline exceeded during local search; returning the best partition found so far")
		}
	}
	res.finish(best)
	return nil
}

// errConstructPanic marks a construction iteration that died to a recovered
// panic; the multi-start loop discards the iteration instead of the solve.
var errConstructPanic = errors.New("fact: construction iteration panicked")

// safeConstruct runs one construction iteration under recover, converting a
// panic (injected or organic) into an error wrapping errConstructPanic so a
// single poisoned multi-start iteration cannot crash the process.
func safeConstruct(ctx context.Context, art *prep.Artifact, ev *constraint.Evaluator, feas *Feasibility, cfg *Config, rng *rand.Rand, warm bool) (p *region.Partition, err error) {
	defer func() {
		if v := recover(); v != nil {
			met.panicsRecovered.Inc()
			p, err = nil, fmt.Errorf("%w: %v", errConstructPanic, v)
		}
	}()
	return construct(ctx, art, ev, feas, cfg, rng, warm)
}

// firstNonEmpty returns the first non-empty string, for error detail.
func firstNonEmpty(msgs []string) string {
	for _, m := range msgs {
		if m != "" {
			return m
		}
	}
	return "no detail"
}
