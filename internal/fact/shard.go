package fact

import (
	"context"
	"errors"
	"fmt"
	"time"

	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/fault"
	"emp/internal/flight"
	"emp/internal/prep"
	"emp/internal/region"
	"emp/internal/shard"
)

// shardRetryPolicy is the backoff schedule for transient shard failures
// (recovered panics, injected transient errors). Package-level so chaos tests
// can shrink the waits; the jitter seed is derived per shard at call time so
// schedules stay reproducible per configuration.
var shardRetryPolicy = fault.RetryPolicy{Attempts: 3, Base: 25 * time.Millisecond, Max: 500 * time.Millisecond}

// solveShardAttempt runs one attempt at a component sub-solve under recover:
// a panic (injected or organic) becomes a Transient error so the caller's
// retry loop treats it like any other transient failure instead of letting it
// take down the process.
func solveShardAttempt(ctx context.Context, idx int, ds *data.Dataset, ev *constraint.Evaluator, cfg Config) (r *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			met.panicsRecovered.Inc()
			r, err = nil, fault.Transient(fmt.Errorf("fact: shard %d solve panicked: %v", idx, v))
		}
	}()
	if err := fault.InjectIdx("shard.solve", idx); err != nil {
		return nil, err
	}
	return solveWhole(ctx, ds, ev, cfg, true)
}

// shardSeed derives the sub-solve seed for shard i from the global seed with
// a splitmix64-style mixer. The construction phase already consumes seed,
// seed+1, ... for its iterations, so a plain offset would make shard i's RNG
// stream collide with the whole-dataset iteration streams; mixing avoids
// that while staying a pure function of (seed, i) — the per-shard results,
// and therefore the merged output, depend only on the configuration, never
// on worker count or completion order.
func shardSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// solveSharded decomposes the dataset into its connected components, solves
// each as an independent FaCT instance on a bounded worker pool, and merges
// the per-component solutions back into global area indices in component
// order. A component that is individually infeasible (e.g. its SUM total is
// below a lower bound the full dataset clears) contributes no regions; its
// areas stay unassigned and a warning records why — mirroring how the
// whole-dataset path leaves areas unassigned when no feasible region covers
// them.
func solveSharded(ctx context.Context, ds *data.Dataset, set constraint.Set, ev *constraint.Evaluator, cfg Config) (*Result, error) {
	// Phase 1 runs globally: Invalid and Seed are pointwise per-area
	// properties, so the global report equals the union of per-shard
	// reports, and dataset-level hard infeasibility short-circuits all
	// shards at once.
	rec := flight.FromContext(ctx)
	rec.SetPhase(flight.PhaseFeasibility)
	feasSpan, _ := met.spanFeas.StartCtx(ctx)
	feas, err := Analyze(ds, ev)
	feasTime := feasSpan.End()
	if err != nil {
		return nil, err
	}
	res := &Result{Feasibility: feas, FeasibilityTime: feasTime}
	if !feas.Feasible {
		met.solves.Inc()
		met.infeasible.Inc()
		return res, fmt.Errorf("%w: %v", ErrInfeasible, feas.Reasons)
	}

	rec.SetPhase(flight.PhaseShards)
	// shardCtx carries the shard-phase span identity so each component's
	// sub-solve span — and everything under it — nests correctly.
	shardSpan, shardCtx := met.spanShard.StartCtx(ctx)
	// A prepared artifact carries the component plan and one prepared
	// sub-artifact per component, so sub-solves run fully prepared and
	// repeated solves on the same dataset share one decomposition.
	art := cfg.preparedFor(ds)
	var plan *shard.Plan
	var subArts []*prep.Artifact
	if art != nil {
		plan, subArts, err = art.Plan()
	} else {
		plan, err = shard.NewPlan(ds)
	}
	if err != nil {
		return nil, err
	}
	res.Shards = len(plan.Shards)

	subs, failMsgs, runErr := runSubSolves(ctx, shardCtx, plan, subArts, set, cfg, "component")
	if err := settleSubSolves(ctx, ctx, plan, subs, failMsgs, runErr, "component"); err != nil {
		return nil, err
	}

	// Merge in component order (deterministic: the plan depends only on the
	// adjacency, each sub-result only on its shard and seed).
	perShard := foldSubResults(res, plan, subs, failMsgs, "component")
	var merged *region.Partition
	if art != nil {
		merged, err = region.PartitionFromRegionsShared(art.Shared(), ev, plan.MergeRegions(perShard))
	} else {
		merged, err = region.PartitionFromRegions(ds, ev, plan.MergeRegions(perShard))
	}
	if err != nil {
		return nil, fmt.Errorf("fact: merging shard partitions: %w", err)
	}
	res.Partition = merged
	res.HeteroAfter = merged.Heterogeneity()
	res.P = merged.NumRegions()
	res.Unassigned = merged.UnassignedCount()
	shardSpan.End()
	if res.Degraded {
		met.degraded.Inc()
	}
	met.solves.Inc()
	emitSolveEvent(res, cfg.LocalSearch.String())
	// Final curve point: the merged (p, H) the caller's response reports.
	rec.Finish(res.P, res.HeteroAfter)
	return res, nil
}

// runSubSolves executes one sub-solve per plan shard on cfg's pool, shared by
// the component-sharded and cut-sharded pipelines. Each shard gets a seed
// mixed from (cfg.Seed, index) and its own prepared sub-artifact when
// available, retries transient failures (recovered panics, injected
// transients) with capped jittered backoff, and records a drop message in
// failMsgs when it exhausts them — the shard is lost, not the solve. noun
// names the shard kind ("component" or "cut shard") in those messages.
// subCtx bounds the sub-solves (it may carry a tighter deadline than the
// caller's, reserving budget for later phases); spanCtx carries the parent
// phase span so per-shard spans nest correctly.
func runSubSolves(subCtx, spanCtx context.Context, plan *shard.Plan, subArts []*prep.Artifact, set constraint.Set, cfg Config, noun string) (subs []*Result, failMsgs []string, runErr error) {
	// A sub-solve's p, H and assignment describe its shard, not the problem
	// the caller's recorder tracks (shard datasets renumber areas), so the
	// whole sub-solve subtree runs without a recorder. The parent records
	// the phases and the final (p, H).
	subCtx = flight.NewContext(subCtx, nil)
	spanCtx = flight.NewContext(spanCtx, nil)
	subs = make([]*Result, len(plan.Shards))
	failMsgs = make([]string, len(plan.Shards))
	runErr = shard.Run(subCtx, len(plan.Shards), cfg.pool(), func(i int) error {
		sub := cfg
		// A warm-start assignment indexes the whole dataset; shard datasets
		// renumber areas, so it must not leak into sub-solves.
		sub.WarmStart = nil
		sub.Seed = shardSeed(cfg.Seed, i)
		// The parent artifact indexes by global area ids; hand each shard
		// its own sub-artifact (or nothing).
		sub.Prepared = nil
		if subArts != nil {
			sub.Prepared = subArts[i]
		}
		subEv, err := constraint.NewEvaluator(set, plan.Shards[i].Dataset.Column)
		if err != nil {
			return err
		}
		// Sub-solves go straight to solveWhole (no recursion) with asShard
		// set: the shard counters account for them, the merged result emits
		// the one solve event.
		policy := shardRetryPolicy
		policy.Seed = shardSeed(cfg.Seed, i)
		attempt := 0
		err = fault.Retry(subCtx, policy, func() error {
			if attempt++; attempt > 1 {
				met.shardRetries.Inc()
			}
			span, attemptCtx := met.spanShardSolve.StartCtx(spanCtx)
			r, err := solveShardAttempt(attemptCtx, i, plan.Shards[i].Dataset, subEv, sub)
			d := span.End()
			met.histShard.Observe(d)
			met.shardSolves.Inc()
			if errors.Is(err, ErrInfeasible) {
				// Shard-level infeasibility is not fatal: the areas stay
				// unassigned, like any area no feasible region covers.
				met.shardInfeasible.Inc()
				subs[i] = r
				return nil
			}
			if err != nil {
				return err
			}
			subs[i] = r
			return nil
		})
		if err == nil {
			return nil
		}
		if errors.Is(err, context.Canceled) {
			return err // explicit cancellation fails the whole solve
		}
		// Exhausted retries, a permanent fault, or a deadline that expired
		// before this shard produced an incumbent: the shard is lost, not
		// the solve. Its areas stay unassigned and the merged result
		// degrades.
		failMsgs[i] = fmt.Sprintf("%s %d (%d areas) dropped after %d attempt(s): %v; its areas are left unassigned",
			noun, i, plan.Shards[i].Dataset.N(), attempt, err)
		return nil
	})
	return subs, failMsgs, runErr
}

// settleSubSolves applies the shared error policy after a sub-solve run:
// explicit cancellation or a non-deadline error fails the solve; a deadline
// (on subCtx — the sub-solve budget, which may be a slice of ctx) degrades
// to whatever shards finished, filling failMsgs for the ones that did not,
// unless nothing finished at all.
func settleSubSolves(ctx, subCtx context.Context, plan *shard.Plan, subs []*Result, failMsgs []string, runErr error, noun string) error {
	if runErr != nil && !errors.Is(runErr, context.DeadlineExceeded) {
		if err := ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return canceled(err)
		}
		return runErr
	}
	if err := subCtx.Err(); err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			return canceled(err)
		}
		// The deadline expired mid-run. Serve whatever shards finished;
		// with none there is nothing to degrade to.
		contributed := false
		for _, r := range subs {
			if r != nil && r.Partition != nil {
				contributed = true
				break
			}
		}
		if !contributed {
			return canceled(err)
		}
		for i := range subs {
			if subs[i] == nil && failMsgs[i] == "" {
				failMsgs[i] = fmt.Sprintf("%s %d (%d areas) dropped: deadline exceeded before its sub-solve finished; its areas are left unassigned",
					noun, i, plan.Shards[i].Dataset.N())
			}
		}
	}
	return nil
}

// foldSubResults folds the per-shard outcomes into the merged result's
// telemetry and warnings and returns the per-shard region member lists for
// Plan.MergeRegions, in shard order. Dropped shards (failMsgs set) degrade
// the result; infeasible shards only warn.
func foldSubResults(res *Result, plan *shard.Plan, subs []*Result, failMsgs []string, noun string) [][][]int {
	perShard := make([][][]int, len(plan.Shards))
	for i, r := range subs {
		if failMsgs[i] != "" {
			// The shard was dropped (exhausted retries, permanent fault or
			// deadline), not proven infeasible: the merged result is
			// best-effort.
			res.Warnings = append(res.Warnings, failMsgs[i])
			res.Degraded = true
			continue
		}
		if r == nil || r.Partition == nil {
			n := plan.Shards[i].Dataset.N()
			msg := fmt.Sprintf("%s %d (%d areas) is infeasible; its areas are left unassigned", noun, i, n)
			if r != nil && r.Feasibility != nil && len(r.Feasibility.Reasons) > 0 {
				msg = fmt.Sprintf("%s: %s", msg, r.Feasibility.Reasons[0])
			}
			res.Warnings = append(res.Warnings, msg)
			continue
		}
		if r.Degraded {
			res.Degraded = true
		}
		for _, id := range r.Partition.RegionIDs() {
			perShard[i] = append(perShard[i], r.Partition.Region(id).Members)
		}
		res.Iterations += r.Iterations
		res.HeteroBefore += r.HeteroBefore
		res.ConstructionTime += r.ConstructionTime
		res.LocalSearchTime += r.LocalSearchTime
		res.TabuMoves += r.TabuMoves
		res.Improvements += r.Improvements
		res.Search.Add(r.Search)
		res.Warnings = append(res.Warnings, r.Warnings...)
	}
	return perShard
}
