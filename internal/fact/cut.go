package fact

import (
	"context"
	"errors"
	"fmt"

	"emp/internal/constraint"
	"emp/internal/flight"
	"emp/internal/prep"
	"emp/internal/region"
	"emp/internal/shard"
	"emp/internal/tabu"
)

// solveCut runs the cut-sharded pipeline: slice the dataset into up to
// cfg.CutShards balanced sub-instances along low-connectivity cuts (the
// artifact's memoized shard.NewCutPlan), solve each as an independent FaCT
// instance on a bounded pool, merge in shard order, then repair the stitch
// seams — rescue boundary areas the cut stranded, and run a Tabu pass
// restricted to the regions touching cut edges. Unlike component sharding
// the decomposition is lossy (regions cannot span shards during the
// sub-solves), so the result differs from the whole-graph solve; it is still
// a pure function of (dataset, constraints, config), independent of the Pool
// size, because the plan is deterministic, each sub-solve owns a mixed seed,
// and merge and repair run in shard order.
func solveCut(ctx context.Context, art *prep.Artifact, set constraint.Set, ev *constraint.Evaluator, cfg Config, res *Result) error {
	flight.FromContext(ctx).SetPhase(flight.PhaseShards)
	cutSpan, _ := met.spanCut.StartCtx(ctx)
	plan, subArts, err := art.CutPlan(cfg.CutShards)
	cutSpan.End()
	if err != nil {
		return fmt.Errorf("fact: cut partitioning: %w", err)
	}
	if len(plan.Shards) < 2 {
		// The partitioner could not produce a real split (tiny dataset);
		// fall through to the normal pipeline rather than paying the merge
		// and repair machinery for one shard.
		if art.Dataset().Components() > 1 {
			return solveSharded(ctx, art, set, ev, cfg, res)
		}
		return solveWhole(ctx, art, ev, cfg, cfg.pool(), res)
	}
	res.Shards = len(plan.Shards)
	res.CutShards = len(plan.Shards)
	met.cutSolves.Inc()
	met.cutShards.Add(int64(len(plan.Shards)))

	// The sub-solves run under a slice of the deadline, derived from the
	// shard span's context so one context carries both; the seam repair
	// gets the rest.
	shardSpan, shardCtx := met.spanShard.StartCtx(ctx)
	subCtx, cancelSub := budgetCtx(shardCtx, cutSubSolveBudgetFrac)
	defer cancelSub()
	merged, err := solveShards(ctx, subCtx, art, plan, subArts, set, ev, cfg, res, "cut shard")
	shardSpan.End()
	if err != nil {
		return err
	}

	repairSeams(ctx, merged, plan, res.Feasibility, cfg, res)
	if err := ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return canceled(err)
	}
	res.finish(merged)
	return nil
}

// repairSeams fixes the damage the cut did to the merged partition, in four
// deterministic steps: assign stranded boundary areas into adjacent feasible
// regions (lowest heterogeneity gain), grow new feasible regions from the
// unassigned areas that remain, carve additional regions out of the surplus
// the cut trapped in seam-adjacent regions (growFromDonors — the step that
// recovers the p the per-shard constructions lost at the boundaries), and
// run a Tabu pass restricted to the members of regions touching a cut edge —
// the only regions the decomposition could have shaped suboptimally. The
// pass runs under the caller's remaining deadline; a deadline that expires
// mid-repair degrades the result, it never fails it.
func repairSeams(ctx context.Context, p *region.Partition, plan *shard.Plan, feas *Feasibility, cfg Config, res *Result) {
	span, spanCtx := met.spanSeam.StartCtx(ctx)
	defer func() {
		d := span.End()
		res.SeamRepairTime = d
		res.LocalSearchTime += d
	}()
	rescueUnassigned(p)
	rescueGrow(p, feas)
	growFromDonors(spanCtx, p, plan)
	if cfg.SkipLocalSearch {
		return
	}
	mask, count := seamMask(p, plan)
	if count == 0 {
		return
	}
	cfg = cfg.withDefaults(count)
	stats := tabu.Improve(p, tabu.Config{
		Objective:    cfg.Objective,
		Tenure:       cfg.TabuLength,
		MaxNoImprove: cfg.MaxNoImprove,
		Restrict:     mask,
		Ctx:          spanCtx,
	})
	res.SeamMoves += stats.Moves
	res.TabuMoves += stats.Moves
	res.Improvements += stats.Improvements
	res.Search.Add(stats.Counters)
	met.seamMoves.Add(int64(stats.Moves))
	if err := ctx.Err(); err != nil && errors.Is(err, context.DeadlineExceeded) {
		res.Degraded = true
		res.Warnings = append(res.Warnings,
			"deadline exceeded during seam repair; returning the best partition found so far")
	}
}

// growFromDonors carves new regions out of the surplus trapped near the
// cuts: each per-shard construction packs its boundary regions with the
// leftover mass its shard could not turn into regions, so the merged
// partition's seam zone holds enough distributed surplus for regions the cut
// prevented — max-p regionalization on the whole graph would have formed
// them across the seams. Seeds are the cut-frontier vertices in ascending
// order; from each, a new region grows by taking the lowest-id adjacent area
// whose donor region stays contiguous and feasible after the removal
// (p.CanRemove + Tracker.SatisfiedAllAfterRemove), until the new region
// satisfies every constraint. A growth that dead-ends rolls its takes back
// in reverse, so the pass only ever increases p and never invalidates a
// donor. Returns the number of regions grown.
func growFromDonors(ctx context.Context, p *region.Partition, plan *shard.Plan) int {
	// Seeds: every member of every region touching a cut edge (the whole
	// seam zone, not just the frontier line — the surplus diffuses a region
	// deep), ascending.
	seenReg := make(map[int]bool)
	inSeam := make([]bool, p.Dataset().N())
	for _, e := range plan.CutEdges {
		for _, v := range e {
			r := p.Assignment(int(v))
			if r == region.Unassigned || seenReg[r] {
				continue
			}
			seenReg[r] = true
			for _, a := range p.Region(r).Members {
				inSeam[a] = true
			}
		}
	}
	var seeds []int
	for a, in := range inSeam {
		if in {
			seeds = append(seeds, a)
		}
	}
	// Each committed region frees no surplus but reshapes the donors, which
	// can unlock a previously refused growth; sweep until a pass grows
	// nothing.
	grown := 0
	for {
		passGrown := 0
		for _, s := range seeds {
			if ctx != nil && ctx.Err() != nil {
				return grown + passGrown
			}
			if growOneFromDonors(p, s) {
				passGrown++
			}
		}
		grown += passGrown
		if passGrown == 0 {
			return grown
		}
	}
}

// growOneFromDonors attempts to grow one new feasible region seeded at area
// seed, taking areas from adjacent regions whose donors remain contiguous
// and feasible. Returns whether a region was committed; on failure the
// partition is exactly as before.
func growOneFromDonors(p *region.Partition, seed int) bool {
	g := p.Graph()
	ev := p.Evaluator()
	type take struct{ area, from int }
	var takes []take
	// takeArea detaches the area from its donor when every donor-side gate
	// passes; unassigned areas need no detachment.
	takeArea := func(a int) bool {
		from := p.Assignment(a)
		if from == region.Unassigned {
			return true
		}
		r := p.Region(from)
		// Never empty a donor below two members: consuming a whole region
		// would make the pass p-neutral churn instead of a net gain.
		if r.Size() <= 2 {
			return false
		}
		if !p.CanRemove(a) || !r.Tracker.SatisfiedAllAfterRemove(a, r.Members) {
			return false
		}
		p.RemoveArea(a)
		takes = append(takes, take{area: a, from: from})
		return true
	}
	rollback := func() {
		for i := len(takes) - 1; i >= 0; i-- {
			p.AddArea(takes[i].from, takes[i].area)
		}
	}
	if p.Assignment(seed) != region.Unassigned && !takeArea(seed) {
		return false
	}
	tr := ev.NewTracker()
	tr.Add(seed)
	members := []int{seed}
	in := map[int]bool{seed: true}
	for !tr.SatisfiedAll() {
		cand := -1
		for _, m := range members {
			for _, nb := range g.Neighbors(m) {
				b := int(nb)
				if in[b] || (cand >= 0 && b >= cand) {
					continue
				}
				if !tr.UpperSafeAfterAdd(b) {
					continue
				}
				cand = b
			}
		}
		ok := false
		for cand >= 0 {
			if takeArea(cand) {
				ok = true
				break
			}
			// The lowest-id candidate's donor refused; try the next one up.
			next := -1
			for _, m := range members {
				for _, nb := range g.Neighbors(m) {
					b := int(nb)
					if in[b] || b <= cand || (next >= 0 && b >= next) {
						continue
					}
					if !tr.UpperSafeAfterAdd(b) {
						continue
					}
					next = b
				}
			}
			cand = next
		}
		if !ok {
			rollback()
			return false
		}
		tr.Add(cand)
		members = append(members, cand)
		in[cand] = true
	}
	p.NewRegion(members...)
	return true
}

// seamMask marks every member of every region that touches a cut edge: the
// Restrict mask for the seam-repair Tabu pass. count is the number of marked
// areas.
func seamMask(p *region.Partition, plan *shard.Plan) (mask []bool, count int) {
	mask = make([]bool, p.Dataset().N())
	seen := make(map[int]bool)
	markRegion := func(v int32) {
		r := p.Assignment(int(v))
		if r == region.Unassigned || seen[r] {
			return
		}
		seen[r] = true
		for _, a := range p.Region(r).Members {
			if !mask[a] {
				mask[a] = true
				count++
			}
		}
	}
	for _, e := range plan.CutEdges {
		markRegion(e[0])
		markRegion(e[1])
	}
	return mask, count
}

// rescueUnassigned assigns stranded areas (typically seam areas a sub-solve
// left out because their region would have crossed the cut) into an adjacent
// region that stays feasible, choosing the lowest heterogeneity gain and
// breaking ties by lowest region id. It loops to a fixpoint: assigning one
// area can make a deeper-stranded neighbor adjacent to a region. Returns the
// number of areas assigned.
func rescueUnassigned(p *region.Partition) int {
	g := p.Graph()
	moved := 0
	for {
		changed := false
		for _, a := range p.UnassignedAreas() {
			best, bestGain := -1, 0.0
			for _, nb := range g.Neighbors(a) {
				to := p.Assignment(int(nb))
				if to == region.Unassigned || to == best {
					continue
				}
				if !p.Region(to).Tracker.SatisfiedAllAfterAdd(a) {
					continue
				}
				gain := p.HeteroGain(a, to)
				if best < 0 || gain < bestGain-1e-12 ||
					(gain <= bestGain+1e-12 && to < best) {
					best, bestGain = to, gain
				}
			}
			if best >= 0 {
				p.AddArea(best, a)
				moved++
				changed = true
			}
		}
		if !changed {
			return moved
		}
	}
}

// rescueGrow builds new feasible regions out of the areas that stay
// unassigned after rescueUnassigned — a cut can strand a whole cluster that
// no adjacent region may absorb, but that would have formed its own region
// in a whole-graph solve. Seeds are taken in ascending order (skipping areas
// the feasibility phase proved invalid); each grows by repeatedly adding the
// lowest-id unassigned neighbor that keeps every upper bound safe until all
// constraints hold, then commits. A seed whose growth dead-ends is abandoned
// and its areas stay unassigned. p only ever increases. Returns the number
// of regions grown.
func rescueGrow(p *region.Partition, feas *Feasibility) int {
	g := p.Graph()
	ev := p.Evaluator()
	grown := 0
	dead := make(map[int]bool)
	for {
		seed := -1
		for _, a := range p.UnassignedAreas() {
			if dead[a] || (feas != nil && feas.Invalid[a]) {
				continue
			}
			seed = a
			break
		}
		if seed < 0 {
			return grown
		}
		tr := ev.NewTracker()
		tr.Add(seed)
		members := []int{seed}
		in := map[int]bool{seed: true}
		ok := tr.SatisfiedAll()
		for !ok {
			cand := -1
			for _, m := range members {
				for _, nb := range g.Neighbors(m) {
					b := int(nb)
					if in[b] || p.Assignment(b) != region.Unassigned {
						continue
					}
					if !tr.UpperSafeAfterAdd(b) {
						continue
					}
					if cand < 0 || b < cand {
						cand = b
					}
				}
			}
			if cand < 0 {
				break
			}
			tr.Add(cand)
			members = append(members, cand)
			in[cand] = true
			ok = tr.SatisfiedAll()
		}
		if !ok {
			dead[seed] = true
			continue
		}
		p.NewRegion(members...)
		grown++
	}
}
