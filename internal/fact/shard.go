package fact

import (
	"context"
	"errors"
	"fmt"
	"time"

	"emp/internal/constraint"
	"emp/internal/fault"
	"emp/internal/flight"
	"emp/internal/prep"
	"emp/internal/region"
	"emp/internal/shard"
	"emp/internal/tabu"
)

// shardRetryPolicy is the backoff schedule for transient shard failures
// (recovered panics, injected transient errors). Package-level so chaos tests
// can shrink the waits; the jitter seed is derived per shard at call time so
// schedules stay reproducible per configuration.
var shardRetryPolicy = fault.RetryPolicy{Attempts: 3, Base: 25 * time.Millisecond, Max: 500 * time.Millisecond}

// solveShardAttempt runs one attempt at a shard sub-solve — phase 1 on the
// shard, then solveWhole on its sub-artifact — under recover: a panic
// (injected or organic) becomes a Transient error so the caller's retry loop
// treats it like any other transient failure instead of letting it take down
// the process. A shard proven infeasible returns its Result with the error.
func solveShardAttempt(ctx context.Context, idx int, art *prep.Artifact, ev *constraint.Evaluator, cfg Config) (r *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			met.panicsRecovered.Inc()
			r, err = nil, fault.Transient(fmt.Errorf("fact: shard %d solve panicked: %v", idx, v))
		}
	}()
	if err := fault.InjectIdx("shard.solve", idx); err != nil {
		return nil, err
	}
	res, err := analyze(ctx, art.Dataset(), ev)
	if err != nil {
		return res, err
	}
	// A sub-solve runs its iterations on the pool slot it already holds.
	if err := solveWhole(ctx, art, ev, cfg, nil, res); err != nil {
		return nil, err
	}
	return res, nil
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
// them. The artifact carries the component plan and one prepared
// sub-artifact per component, so repeated solves on a dataset share one
// decomposition.
func solveSharded(ctx context.Context, art *prep.Artifact, set constraint.Set, ev *constraint.Evaluator, cfg Config, res *Result) error {
	flight.FromContext(ctx).SetPhase(flight.PhaseShards)
	// shardCtx carries the shard-phase span identity so each component's
	// sub-solve span — and everything under it — nests correctly.
	shardSpan, shardCtx := met.spanShard.StartCtx(ctx)
	defer shardSpan.End()
	plan, subArts, err := art.Plan()
	if err != nil {
		return err
	}
	res.Shards = len(plan.Shards)
	merged, err := solveShards(ctx, shardCtx, art, plan, subArts, set, ev, cfg, res, "component")
	if err != nil {
		return err
	}
	res.finish(merged)
	return nil
}

// solveShards is the body the component- and cut-sharded pipelines share:
// run one sub-solve per plan shard under subCtx (which carries the shard
// phase span, and may carry a tighter deadline than ctx), settle their
// errors, fold their telemetry into res and merge their regions into one
// partition of the whole dataset in shard order (deterministic: the plan
// depends only on the dataset, each sub-result only on its shard and seed).
// noun names the shard kind in warnings.
func solveShards(ctx, subCtx context.Context, art *prep.Artifact, plan *shard.Plan, subArts []*prep.Artifact, set constraint.Set, ev *constraint.Evaluator, cfg Config, res *Result, noun string) (*region.Partition, error) {
	subs, failMsgs, runErr := runSubSolves(subCtx, plan, subArts, set, cfg, noun)
	if err := settleSubSolves(ctx, subCtx, plan, subs, failMsgs, runErr, noun); err != nil {
		return nil, err
	}
	perShard := foldSubResults(res, plan, subs, failMsgs, noun)
	merged, err := region.PartitionFromRegionsShared(art.Shared(), ev, plan.MergeRegions(perShard))
	if err != nil {
		return nil, fmt.Errorf("fact: merging %s partitions: %w", noun, err)
	}
	return merged, nil
}

// runSubSolves executes one sub-solve per plan shard on cfg's pool, each on
// its prepared sub-artifact. Each shard gets a seed mixed from (cfg.Seed,
// index), retries transient failures (recovered panics, injected
// transients) with capped jittered backoff, and records a drop message in
// failMsgs when it exhausts them — the shard is lost, not the solve. noun
// names the shard kind ("component" or "cut shard") in those messages. ctx
// bounds the sub-solves and carries the parent phase span, so per-shard
// spans nest under it.
func runSubSolves(ctx context.Context, plan *shard.Plan, subArts []*prep.Artifact, set constraint.Set, cfg Config, noun string) (subs []*Result, failMsgs []string, runErr error) {
	// A sub-solve's p, H and assignment describe its shard, not the problem
	// the caller's recorder tracks (shard datasets renumber areas), so the
	// whole sub-solve subtree runs without a recorder. The parent records
	// the phases and the final (p, H).
	ctx = flight.NewContext(ctx, nil)
	subs = make([]*Result, len(plan.Shards))
	failMsgs = make([]string, len(plan.Shards))
	runErr = shard.Run(ctx, len(plan.Shards), cfg.pool(), func(i int) error {
		sub := cfg
		// A warm-start assignment indexes the whole dataset; shard datasets
		// renumber areas, so it must not leak into sub-solves. An objective
		// holding per-area state is re-indexed to the shard's areas.
		sub.WarmStart = nil
		sub.Objective = tabu.Reindex(cfg.Objective, plan.Shards[i].GlobalIDs)
		sub.Seed = shardSeed(cfg.Seed, i)
		subEv, err := constraint.NewEvaluator(set, plan.Shards[i].Dataset.Column)
		if err != nil {
			return err
		}
		policy := shardRetryPolicy
		policy.Seed = shardSeed(cfg.Seed, i)
		attempt := 0
		err = fault.Retry(ctx, policy, func() error {
			if attempt++; attempt > 1 {
				met.shardRetries.Inc()
			}
			span, attemptCtx := met.spanShardSolve.StartCtx(ctx)
			r, err := solveShardAttempt(attemptCtx, i, subArts[i], subEv, sub)
			span.End()
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
