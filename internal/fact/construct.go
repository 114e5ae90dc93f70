package fact

import (
	"context"
	"math"
	"math/rand"
	"slices"

	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/fault"
	"emp/internal/graph"
	"emp/internal/prep"
	"emp/internal/region"
)

// builder carries the state of one construction-phase iteration.
type builder struct {
	ctx  context.Context
	ds   *data.Dataset
	ev   *constraint.Evaluator
	g    *graph.Graph
	feas *Feasibility
	cfg  *Config
	rng  *rand.Rand
	p    *region.Partition

	// faultErr records an error injected at the sweep-boundary fault site;
	// construct surfaces it after the fixpoint loops unwind.
	faultErr error

	// avgIdx is the constraint index of the primary AVG constraint that
	// drives region growing, or -1 when the query has none (then every
	// value classifies as in-range).
	avgIdx int

	// Scratch reused across calls instead of per-call maps and clones.
	// seenIDs holds the neighbor region ids tryAttach and tryMergeAbsorb
	// already tried (an area has few distinct neighbor regions, so a linear
	// scan beats hashing); mergeTrial is mergedPlusAreaSafe's union tracker,
	// created on first use; swaps holds pullAreas' candidate pairs.
	seenIDs    []int
	mergeTrial *constraint.Tracker
	swaps      []uint64
}

// construct runs one full construction iteration (Steps 1-3) and returns
// the resulting partition. The context is checked between sweeps; a
// cancelled construction abandons the partial partition and returns the
// context error. With warm set, Step 2's region growing is replaced by
// seeding from cfg.WarmStart (see warm.go); the repair substeps run either
// way, so a warm seed under a perturbed constraint set is fixed up, not
// trusted blindly.
func construct(ctx context.Context, art *prep.Artifact, ev *constraint.Evaluator, feas *Feasibility, cfg *Config, rng *rand.Rand, warm bool) (*region.Partition, error) {
	// The artifact's dissimilarity matrix, rank kernel and scratch pools are
	// reused instead of rebuilt per iteration.
	p := region.NewPartitionShared(art.Shared(), ev)
	ds := art.Dataset()
	b := &builder{
		ctx:    ctx,
		ds:     ds,
		ev:     ev,
		g:      ds.Graph(),
		feas:   feas,
		cfg:    cfg,
		rng:    rng,
		p:      p,
		avgIdx: -1,
	}
	for i, c := range ev.Set() {
		if c.Agg == constraint.Avg {
			b.avgIdx = i
			break
		}
	}
	if warm {
		b.growRegionsWarm() // Step 2 seeded from cfg.WarmStart (warm.go)
	} else {
		b.growRegions() // Step 2 (Step 1's filtering/seeding is in feas)
	}
	b.adjustCounting()     // Step 3
	b.dissolveInfeasible() // finalize: drop regions that could not be fixed
	if b.faultErr != nil {
		return nil, b.faultErr
	}
	if err := ctx.Err(); err != nil {
		return nil, canceled(err)
	}
	p.FlushObs() // fold this iteration's region counters into the registry
	return p, nil
}

// stopped reports whether the construction's context has been cancelled; the
// sweep loops poll it at iteration boundaries so a cancelled solve exits
// within one sweep instead of running Steps 2-3 to their fixpoints. The same
// boundary doubles as the construction fault-injection site: an injected
// error (or deadline) stops the sweeps like a cancellation would, an injected
// panic unwinds to the safeConstruct recover.
func (b *builder) stopped() bool {
	if b.faultErr != nil {
		return true
	}
	if err := fault.Inject("fact.construct.sweep"); err != nil {
		b.faultErr = err
		return true
	}
	return b.ctx != nil && b.ctx.Err() != nil
}

// avgClass classifies an area against the primary AVG constraint's range:
// -1 below, 0 inside, +1 above. With no AVG constraint everything is inside.
func (b *builder) avgClass(area int) int {
	if b.avgIdx < 0 {
		return 0
	}
	v := b.ev.AreaValue(b.avgIdx, area)
	c := b.ev.At(b.avgIdx)
	switch {
	case v < c.Lower:
		return -1
	case v > c.Upper:
		return +1
	default:
		return 0
	}
}

// regionAvg returns the region's current value of the primary AVG
// constraint; +Inf-free because regions are non-empty.
func (b *builder) regionAvg(r *region.Region) float64 {
	if b.avgIdx < 0 {
		return 0
	}
	return r.Tracker.Value(b.avgIdx)
}

// avgInRange reports whether the primary AVG constraint holds for value v.
func (b *builder) avgInRange(v float64) bool {
	if b.avgIdx < 0 {
		return true
	}
	return b.ev.At(b.avgIdx).Contains(v)
}

// shuffledAreas returns the area ids 0..n-1 ordered per the configured area
// pickup criteria (default random).
func (b *builder) shuffledAreas() []int {
	n := b.ds.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	switch b.cfg.Order {
	case OrderAscending:
		// keep natural order
	case OrderDescending:
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	default: // OrderRandom
		b.rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	return order
}

// growRegions is Step 2: Region Growing (Substeps 2.1-2.3).
func (b *builder) growRegions() {
	order := b.shuffledAreas()

	// Substep 2.1 — initialize regions from seed areas. In-range seeds
	// each become their own region (maximizing p); low/high seeds are
	// grown into valid regions with Algorithm 1.
	var lowHighSeeds []int
	for _, a := range order {
		if !b.feas.Seed[a] || b.feas.Invalid[a] {
			continue
		}
		if b.avgClass(a) == 0 {
			b.p.NewRegion(a)
		} else {
			lowHighSeeds = append(lowHighSeeds, a)
		}
	}
	b.mergeAreasAlgorithm1(lowHighSeeds)

	// Substep 2.2 — assign the remaining unassigned areas.
	b.assignEnclavesRound1()
	b.assignEnclavesRound2()

	// Substep 2.3 — combine regions until each satisfies every extrema
	// constraint; dissolve those that cannot be fixed.
	b.combineForExtrema()
}

// mergeAreasAlgorithm1 is Algorithm 1 (Region Growing - Merging Areas):
// grow a temporary region from each out-of-range area by repeatedly adding
// an unassigned neighbor from the opposite side of the range until the
// region average lands inside; revert when the neighbors are exhausted.
func (b *builder) mergeAreasAlgorithm1(areas []int) {
	if b.avgIdx < 0 {
		// No AVG constraint: every area is in-range; nothing to do here.
		for _, a := range areas {
			if b.p.Assignment(a) == region.Unassigned {
				b.p.NewRegion(a)
			}
		}
		return
	}
	c := b.ev.At(b.avgIdx)
	for _, a := range areas {
		if b.stopped() {
			return
		}
		if b.p.Assignment(a) != region.Unassigned {
			continue // absorbed by an earlier temporary region
		}
		r := b.p.NewRegion(a)
		for {
			avg := b.regionAvg(r)
			if c.Contains(avg) {
				break // committed
			}
			added := b.addOppositeNeighbor(r, avg, c)
			if !added {
				b.p.DissolveRegion(r.ID) // revert; areas stay unassigned
				break
			}
		}
	}
}

// addOppositeNeighbor finds an unassigned, valid neighbor of the region
// whose attribute value is on the opposite side of the AVG range (the
// Algorithm 1 line 18 condition), preferring the one that brings the
// average closest to the range, and adds it. Counting upper bounds are
// respected so the region never becomes unfixably oversized.
func (b *builder) addOppositeNeighbor(r *region.Region, avg float64, c constraint.Constraint) bool {
	best, bestDist := -1, math.Inf(1)
	for _, m := range r.Members {
		for _, nb32 := range b.g.Neighbors(m) {
			nb := int(nb32)
			if b.p.Assignment(nb) != region.Unassigned || b.feas.Invalid[nb] {
				continue
			}
			v := b.ev.AreaValue(b.avgIdx, nb)
			if !((avg < c.Lower && v > c.Upper) || (avg > c.Upper && v < c.Lower)) {
				continue
			}
			if !r.Tracker.UpperSafeAfterAdd(nb) {
				// Counting-upper violation; this neighbor is unusable
				// but others may not be.
				continue
			}
			newAvg := r.Tracker.ValueAfterAdd(b.avgIdx, nb)
			d := rangeDist(newAvg, c)
			if d < bestDist {
				best, bestDist = nb, d
			}
		}
	}
	if best < 0 {
		return false
	}
	b.p.AddArea(r.ID, best)
	return true
}

// rangeDist returns how far v lies outside [c.Lower, c.Upper] (0 inside).
func rangeDist(v float64, c constraint.Constraint) float64 {
	switch {
	case v < c.Lower:
		return c.Lower - v
	case v > c.Upper:
		return v - c.Upper
	default:
		return 0
	}
}

// assignEnclavesRound1 is Substep 2.2 round 1: repeatedly sweep the
// unassigned valid areas, attaching each to a neighbor region when doing so
// keeps the AVG constraint satisfied (in-range areas always can) and does
// not break any hard upper bound. Sweeps continue until a fixpoint, since
// each assignment may unlock neighbors.
func (b *builder) assignEnclavesRound1() {
	order := b.shuffledAreas()
	for !b.stopped() {
		updated := false
		for _, a := range order {
			if b.p.Assignment(a) != region.Unassigned || b.feas.Invalid[a] {
				continue
			}
			if b.tryAttach(a) {
				updated = true
			}
		}
		if !updated {
			return
		}
	}
}

// tryAttach adds the area to the best adjacent region that stays valid,
// returning whether it was assigned.
func (b *builder) tryAttach(a int) bool {
	bestID := -1
	bestAvgDist := math.Inf(1)
	b.seenIDs = b.seenIDs[:0]
	for _, nb := range b.g.Neighbors(a) {
		id := b.p.Assignment(int(nb))
		if id == region.Unassigned || slices.Contains(b.seenIDs, id) {
			continue
		}
		b.seenIDs = append(b.seenIDs, id)
		r := b.p.Region(id)
		if !r.Tracker.UpperSafeAfterAdd(a) {
			continue
		}
		if b.avgIdx >= 0 {
			newAvg := r.Tracker.ValueAfterAdd(b.avgIdx, a)
			if !b.avgInRange(newAvg) {
				continue
			}
			// Prefer the region whose post-add average sits most
			// centrally, to keep room for future additions.
			c := b.ev.At(b.avgIdx)
			mid := (c.Lower + c.Upper) / 2
			if c.Bounded() {
				d := math.Abs(newAvg - mid)
				if d < bestAvgDist {
					bestID, bestAvgDist = id, d
				}
				continue
			}
		}
		bestID = id
		break
	}
	if bestID < 0 {
		return false
	}
	b.p.AddArea(bestID, a)
	return true
}

// assignEnclavesRound2 is Substep 2.2 round 2: for each remaining
// out-of-range unassigned area, try merging one of its neighbor regions
// with that region's neighbor regions so the combined region absorbs the
// area within the AVG range. Each merge attempt counts against the
// configured merge limit per area; sweeps continue until a fixpoint.
func (b *builder) assignEnclavesRound2() {
	if b.avgIdx < 0 {
		return
	}
	order := b.shuffledAreas()
	for !b.stopped() {
		updated := false
		for _, a := range order {
			if b.p.Assignment(a) != region.Unassigned || b.feas.Invalid[a] {
				continue
			}
			if b.tryMergeAbsorb(a) {
				updated = true
			}
		}
		if !updated {
			return
		}
	}
}

// tryMergeAbsorb attempts the round-2 merge for one area.
func (b *builder) tryMergeAbsorb(a int) bool {
	trials := 0
	b.seenIDs = b.seenIDs[:0]
	for _, nb := range b.g.Neighbors(a) {
		id := b.p.Assignment(int(nb))
		if id == region.Unassigned || slices.Contains(b.seenIDs, id) {
			continue
		}
		b.seenIDs = append(b.seenIDs, id)
		r := b.p.Region(id)
		for _, nbID := range b.p.NeighborRegions(id) {
			if trials >= b.cfg.MergeLimit {
				return false
			}
			trials++
			r2 := b.p.Region(nbID)
			if !b.mergedPlusAreaSafe(r, r2, a) {
				continue
			}
			b.p.MergeRegions(id, nbID)
			b.p.AddArea(id, a)
			return true
		}
	}
	return false
}

// mergedPlusAreaSafe reports whether the union of two regions plus one area
// satisfies the AVG range, all extrema ranges, and the counting upper
// bounds.
func (b *builder) mergedPlusAreaSafe(r1, r2 *region.Region, a int) bool {
	if b.mergeTrial == nil {
		b.mergeTrial = b.ev.NewTracker()
	}
	tmp := b.mergeTrial
	tmp.CopyFrom(r1.Tracker)
	tmp.Merge(r2.Tracker)
	if !tmp.UpperSafeAfterAdd(a) {
		return false
	}
	if b.avgIdx >= 0 {
		if !b.avgInRange(tmp.ValueAfterAdd(b.avgIdx, a)) {
			return false
		}
	}
	return true
}

// combineForExtrema is Substep 2.3: merge regions until every region
// satisfies all extrema constraints (each region holds a seed for each
// MIN/MAX constraint); regions that cannot be completed are dissolved.
func (b *builder) combineForExtrema() {
	extremaIdx := b.extremaIndices()
	if len(extremaIdx) == 0 {
		return
	}
	for !b.stopped() {
		updated := false
		for _, id := range b.p.RegionIDs() {
			r := b.p.Region(id)
			if r == nil || b.extremaSatisfied(r, extremaIdx) {
				continue
			}
			for _, nbID := range b.p.NeighborRegions(id) {
				nb := b.p.Region(nbID)
				if r.Tracker.UpperSafeAfterMerge(nb.Tracker) {
					b.p.MergeRegions(id, nbID)
					updated = true
					break
				}
			}
		}
		if !updated {
			break
		}
	}
	// Dissolve regions that still violate extrema or AVG constraints:
	// Step 3 can only fix counting constraints.
	for _, id := range b.p.RegionIDs() {
		r := b.p.Region(id)
		if r == nil {
			continue
		}
		if !b.extremaSatisfied(r, extremaIdx) || (b.avgIdx >= 0 && !r.Tracker.Satisfied(b.avgIdx)) {
			b.p.DissolveRegion(id)
		}
	}
}

func (b *builder) extremaIndices() []int {
	var out []int
	for i, c := range b.ev.Set() {
		if c.Agg.Family() == constraint.Extrema {
			out = append(out, i)
		}
	}
	return out
}

func (b *builder) extremaSatisfied(r *region.Region, idx []int) bool {
	for _, i := range idx {
		if !r.Tracker.Satisfied(i) {
			return false
		}
	}
	return true
}

// countingIndices returns the constraint indices of SUM/COUNT constraints.
func (b *builder) countingIndices() []int {
	var out []int
	for i, c := range b.ev.Set() {
		if c.Agg.Family() == constraint.Counting {
			out = append(out, i)
		}
	}
	return out
}

// adjustCounting is Step 3: Monotonic Adjustments. Regions below a SUM or
// COUNT lower bound first try to pull border areas from neighbor regions
// (swaps that keep the donor valid and contiguous), then merge with
// neighbor regions; regions above an upper bound shed removable boundary
// areas. Remaining infeasible regions are dissolved by the caller.
func (b *builder) adjustCounting() {
	countIdx := b.countingIndices()
	if len(countIdx) == 0 {
		return
	}
	swapped := make([]bool, b.ds.N()) // each area is swapped at most once
	for !b.stopped() {
		changed := false
		for _, id := range b.p.RegionIDs() {
			r := b.p.Region(id)
			if r == nil {
				continue
			}
			below, above := b.countingViolation(r, countIdx)
			switch {
			case above:
				if b.shedAreas(r, countIdx) {
					changed = true
				}
			case below:
				if b.pullAreas(r, countIdx, swapped) {
					changed = true
				} else if b.mergeForLowerBound(r) {
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

// countingViolation classifies the region against the counting constraints.
func (b *builder) countingViolation(r *region.Region, countIdx []int) (below, above bool) {
	for _, i := range countIdx {
		v := r.Tracker.Value(i)
		c := b.ev.At(i)
		if v < c.Lower {
			below = true
		}
		if v > c.Upper {
			above = true
		}
	}
	return below, above
}

// pullAreas swaps border areas from neighbor regions into r until the
// counting lower bounds hold or no valid swap remains. Donors must remain
// contiguous and fully valid; each area moves at most once overall. Each
// round takes the first valid swap in ascending (donor id, area) order. The
// constraint predicates are pure, so they run first; the donor contiguity
// check, the only one that traverses a region, runs last.
func (b *builder) pullAreas(r *region.Region, countIdx []int, swapped []bool) bool {
	moved := false
	for !b.stopped() {
		below, _ := b.countingViolation(r, countIdx)
		if !below {
			return moved
		}
		swappedOne := false
		for _, pair := range b.swapCandidates(r) {
			donor, a := int(pair>>32), int(uint32(pair))
			if swapped[a] {
				continue
			}
			nb := b.p.Region(donor)
			if !nb.Tracker.SatisfiedAllAfterRemove(a, nb.Members) || !r.Tracker.UpperSafeAfterAdd(a) {
				continue
			}
			if b.avgIdx >= 0 && !b.avgInRange(r.Tracker.ValueAfterAdd(b.avgIdx, a)) {
				continue
			}
			if !b.p.CanRemove(a) {
				continue
			}
			b.p.MoveArea(a, r.ID)
			swapped[a] = true
			moved, swappedOne = true, true
			break
		}
		if !swappedOne {
			return moved
		}
	}
	return moved
}

// swapCandidates lists every (donor region, area) pair where the area sits
// in another region and borders r, packed as donor<<32 | area and sorted, so
// ascending by donor id, then by area. It reads only the neighbors of r's
// members, never the donors' member lists. The slice is builder scratch,
// valid until the next call.
func (b *builder) swapCandidates(r *region.Region) []uint64 {
	b.swaps = b.swaps[:0]
	for _, m := range r.Members {
		for _, nb := range b.g.Neighbors(m) {
			if id := b.p.Assignment(int(nb)); id != region.Unassigned && id != r.ID {
				b.swaps = append(b.swaps, uint64(id)<<32|uint64(nb))
			}
		}
	}
	slices.Sort(b.swaps)
	b.swaps = slices.Compact(b.swaps) // an area bordering several members
	return b.swaps
}

// mergeForLowerBound merges r with a neighbor region when the union
// respects all hard bounds, moving r toward its counting lower bounds.
func (b *builder) mergeForLowerBound(r *region.Region) bool {
	for _, nbID := range b.p.NeighborRegions(r.ID) {
		nb := b.p.Region(nbID)
		if r.Tracker.UpperSafeAfterMerge(nb.Tracker) {
			b.p.MergeRegions(r.ID, nbID)
			return true
		}
	}
	return false
}

// shedAreas removes boundary areas from an over-bound region until the
// counting upper bounds hold, keeping the region contiguous and valid on
// every other constraint. Removed areas become unassigned.
func (b *builder) shedAreas(r *region.Region, countIdx []int) bool {
	removedAny := false
	for !b.stopped() {
		_, above := b.countingViolation(r, countIdx)
		if !above {
			return removedAny
		}
		removed := false
		candidates := b.p.BoundaryAreas(r.ID)
		if len(candidates) == 0 {
			// The region covers a whole component: no member touches the
			// outside, so any non-articulation member may be shed.
			candidates = append([]int(nil), r.Members...)
		}
		for _, a := range candidates {
			if len(r.Members) <= 1 {
				break
			}
			if !b.removalKeepsNonCounting(r, a) || !b.p.CanRemove(a) {
				continue
			}
			b.p.RemoveArea(a)
			removed, removedAny = true, true
			break
		}
		if !removed {
			return removedAny
		}
	}
	return removedAny
}

// removalKeepsNonCounting reports whether removing the area keeps the
// region's extrema and AVG constraints satisfied and no counting constraint
// newly above its upper bound (sums only shrink, so only extrema/AVG can
// break).
func (b *builder) removalKeepsNonCounting(r *region.Region, a int) bool {
	for i, c := range b.ev.Set() {
		if c.Agg.Family() == constraint.Counting {
			continue
		}
		if !c.Contains(r.Tracker.ValueAfterRemove(i, a, r.Members)) {
			return false
		}
	}
	return true
}

// dissolveInfeasible removes regions that violate any constraint, returning
// their areas to U0. After Step 3 this finalizes the construction phase.
func (b *builder) dissolveInfeasible() {
	for _, id := range b.p.RegionIDs() {
		r := b.p.Region(id)
		if r != nil && !r.Tracker.SatisfiedAll() {
			b.p.DissolveRegion(id)
		}
	}
}
