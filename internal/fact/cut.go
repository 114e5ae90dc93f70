package fact

import (
	"context"
	"errors"
	"fmt"
	"slices"

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
// seams — rescue boundary areas the cut stranded, carve new regions out of
// the seam zone, and run a Tabu pass restricted to it. Unlike component
// sharding the decomposition is lossy (regions cannot span shards during
// the sub-solves), so the result differs from the whole-graph solve; it is
// still a pure function of (dataset, constraints, config), independent of
// the Pool size, because the plan is deterministic, each sub-solve owns a
// mixed seed, and merge and repair run in shard order.
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

// repairSeams fixes the damage the cut did to the merged partition, in
// deterministic order: attach stranded areas to adjacent feasible regions
// (rescueUnassigned), carve new regions out of the unassigned pockets that
// remain, carve more out of the surplus the cut trapped in the seam zone —
// the step that recovers the p the per-shard constructions lost at the
// boundaries — and run a Tabu pass restricted to the seam zone, the only
// regions the decomposition could have shaped suboptimally. The pass runs
// under the caller's remaining deadline; a deadline that expires
// mid-repair degrades the result, it never fails it.
func repairSeams(ctx context.Context, p *region.Partition, plan *shard.Plan, feas *Feasibility, cfg Config, res *Result) {
	span, spanCtx := met.spanSeam.StartCtx(ctx)
	defer func() {
		d := span.End()
		res.SeamRepairTime = d
		res.LocalSearchTime += d
	}()
	rescueUnassigned(p)
	c := newCarver(p)
	c.rescue(spanCtx, feas)
	zone, _ := seamZone(p, plan)
	c.sweep(spanCtx, zone)
	if cfg.SkipLocalSearch {
		return
	}
	mask, count := seamZone(p, plan)
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

// seamZone marks every member of every region that touches a cut edge and
// counts the marked areas. The zone is where the cut shaped regions: the
// carve seeds there, since the surplus the cut trapped diffuses a region
// deep, and the restricted Tabu pass moves only zone areas.
func seamZone(p *region.Partition, plan *shard.Plan) (zone []bool, count int) {
	zone = make([]bool, p.Dataset().N())
	for _, e := range plan.CutEdges {
		for _, v := range e {
			r := p.Assignment(int(v))
			// A marked endpoint's whole region is marked already.
			if r == region.Unassigned || zone[v] {
				continue
			}
			for _, a := range p.Region(r).Members {
				zone[a] = true
			}
			count += p.Region(r).Size()
		}
	}
	return zone, count
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

// carver grows every new region the seam repair makes. A carve grows one
// region from a seed: at each step it joins the lowest-id frontier area
// that keeps every upper bound safe and is either unassigned or, with
// donors on, an area its donor region can spare (take). It commits the
// region once every constraint holds; a carve that runs out of candidates
// hands its takes back in reverse and leaves the partition as it was, so
// carving only ever raises p and never invalidates a donor. One tracker,
// the member, frontier and take lists and one byte per area serve every
// carve.
type carver struct {
	p       *region.Partition
	tr      *constraint.Tracker
	members []int
	front   []int // areas adjacent to the members, ascending
	takes   []taken
	seen    []bool // members and frontier of the current carve
}

// taken records an area detached from its donor region.
type taken struct{ area, from int }

func newCarver(p *region.Partition) *carver {
	return &carver{p: p, tr: p.Evaluator().NewTracker(), seen: make([]bool, p.Dataset().N())}
}

// rescue carves, donors off, new regions out of the areas that stay
// unassigned after rescueUnassigned: a cut can strand a whole cluster that
// no adjacent region may absorb but that would have formed its own region
// in a whole-graph solve. It visits the valid areas once in ascending order
// and seeds a carve at each one still unassigned when reached; areas the
// feasibility phase proved invalid seed nothing.
func (c *carver) rescue(ctx context.Context, feas *Feasibility) {
	for a, invalid := range feas.Invalid {
		if invalid || c.p.Assignment(a) != region.Unassigned {
			continue
		}
		if ctx.Err() != nil {
			return
		}
		c.carve(a, false)
	}
}

// sweep carves, donors on, new regions out of the surplus the cut trapped
// in the seam zone: each per-shard construction packs its boundary regions
// with the leftover mass its shard could not turn into regions, so the zone
// holds enough distributed surplus for regions a whole-graph solve would
// have formed across the seams. Every zone area seeds a carve, in ascending
// order. A committed region reshapes its donors, which can unlock a refused
// carve, so the sweep repeats until a pass grows nothing.
func (c *carver) sweep(ctx context.Context, zone []bool) {
	for {
		grown := false
		for a, in := range zone {
			if !in {
				continue
			}
			if ctx.Err() != nil {
				return
			}
			if c.carve(a, true) {
				grown = true
			}
		}
		if !grown {
			return
		}
	}
}

// carve tries to grow one new feasible region from seed, which must be
// unassigned unless donors is on. It reports whether a region was
// committed; on failure the partition is exactly as before.
func (c *carver) carve(seed int, donors bool) bool {
	p := c.p
	c.takes = c.takes[:0]
	if p.Assignment(seed) != region.Unassigned && !(donors && c.take(seed)) {
		return false
	}
	c.members, c.front = c.members[:0], c.front[:0]
	c.tr.Reset()
	c.join(seed)
	ok := true
	for ok && !c.tr.SatisfiedAll() {
		ok = c.grow(donors)
	}
	for _, a := range c.front {
		c.seen[a] = false
	}
	for _, a := range c.members {
		c.seen[a] = false
	}
	if !ok {
		for i := len(c.takes) - 1; i >= 0; i-- {
			p.AddArea(c.takes[i].from, c.takes[i].area)
		}
		return false
	}
	p.NewRegion(c.members...)
	return true
}

// grow joins the lowest-id frontier area the region can take and reports
// whether there was one.
func (c *carver) grow(donors bool) bool {
	for i, b := range c.front {
		if !c.tr.UpperSafeAfterAdd(b) {
			continue
		}
		if c.p.Assignment(b) == region.Unassigned || donors && c.take(b) {
			c.front = slices.Delete(c.front, i, i+1)
			c.join(b)
			return true
		}
	}
	return false
}

// join adds the area to the growing region and its unseen neighbors to the
// frontier, keeping the frontier ascending.
func (c *carver) join(a int) {
	c.tr.Add(a)
	c.members = append(c.members, a)
	c.seen[a] = true
	for _, nb := range c.p.Graph().Neighbors(a) {
		b := int(nb)
		if c.seen[b] {
			continue
		}
		c.seen[b] = true
		i, _ := slices.BinarySearch(c.front, b)
		c.front = slices.Insert(c.front, i, b)
	}
}

// take detaches the area from its donor region if the donor can spare it:
// the donor keeps at least two members (consuming whole regions would be
// p-neutral churn), stays connected (p.CanRemove) and stays feasible
// (Tracker.SatisfiedAllAfterRemove), checked in that order.
func (c *carver) take(a int) bool {
	p := c.p
	from := p.Assignment(a)
	r := p.Region(from)
	if r.Size() <= 2 || !p.CanRemove(a) || !r.Tracker.SatisfiedAllAfterRemove(a, r.Members) {
		return false
	}
	p.RemoveArea(a)
	c.takes = append(c.takes, taken{area: a, from: from})
	return true
}
