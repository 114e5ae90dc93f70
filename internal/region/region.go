// Package region provides the mutable partition model shared by the FaCT
// construction phase, the Tabu local search, and the MP-regions baseline:
// regions with incrementally maintained constraint aggregates, the
// area-to-region assignment, contiguity checks, and the heterogeneity
// objective H(P).
package region

import (
	"fmt"
	"math"
	"sort"

	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/graph"
)

// Region is one output region: a set of areas plus the incremental
// aggregate state used to validate the user-defined constraints.
type Region struct {
	// ID is the region identifier, unique within its Partition.
	ID int
	// Members lists the area ids in insertion order.
	Members []int
	// Tracker holds the constraint aggregates of the member areas.
	Tracker *constraint.Tracker
	// Hetero is the internal heterogeneity: sum of |d_i - d_j| over
	// member pairs.
	Hetero float64
	// epoch counts mutations of this region (member additions, removals,
	// merges). removableAt is the epoch of the partition's removability
	// verdicts for the members (0: none); they are current while it equals
	// epoch (see CanRemove).
	epoch, removableAt int
	// fen is the region's Fenwick heterogeneity index, or nil while the
	// region is below the build threshold (then the naive scan is used).
	fen *regionFen
}

// Version returns the region's mutation epoch. It changes whenever the
// member set changes, so (ID, Version) keys cached derived state. A region
// with at least one member always has Version >= 1, so 0 can mean "unseen"
// in id-indexed caches.
func (r *Region) Version() int { return r.epoch }

// Size returns the number of member areas.
func (r *Region) Size() int { return len(r.Members) }

// Unassigned marks areas not assigned to any region.
const Unassigned = -1

// Partition is a mutable assignment of areas to regions over a fixed
// dataset and constraint evaluator. The zero value is not usable; create
// with NewPartition.
type Partition struct {
	ds     *data.Dataset
	g      *graph.Graph
	ev     *constraint.Evaluator
	dis    [][]float64 // one row per dissimilarity attribute
	assign []int
	// regs is the region table indexed by region id (nil = no region with
	// that id). Ids are issued monotonically and never reused, so the table
	// only grows; iterating it ascending visits regions in ascending-id
	// order with no sort and no allocation.
	regs       []*Region
	numRegions int
	// live lists the ids of the current regions in ascending order while
	// liveOK holds. insertRegion and deleteRegion clear liveOK and liveIDs
	// rebuilds the list on its next read, so readers between structural
	// changes — the whole local search, whose moves keep p — walk p entries
	// instead of every id ever issued.
	live   []int
	liveOK bool
	// regMark/markGen dedupe region ids in NeighborRegions without a map:
	// regMark[id] == markGen marks an id already collected by the current
	// call. regMark grows with the region table.
	regMark []int
	markGen int
	// freeRegs recycles deleted Region shells (member capacity + tracker
	// arrays) for subsequent NewRegion calls. The shells keep no identity:
	// ids are still issued fresh from nextID.
	freeRegs []*Region
	nextID   int
	// shells holds fresh Region shells, each with its tracker and a small
	// member capacity, carved from chunks (newShell): construction opens a
	// region per seed area, and a chunk costs five allocations however many
	// shells it holds. shellChunk is the size of the last chunk.
	shells     []Region
	shellChunk int

	// krn is the immutable rank structure of the heterogeneity kernel
	// (shared across clones); kernelOn gates the O(log n) path so the
	// naive O(|R|) fallback stays available for differential testing.
	krn      *heteroKernel
	kernelOn bool
	fenPool  []*regionFen
	// shared is the per-dataset state the partition was built on; its
	// scratch and Fenwick trees come from shared's pools (see Shared and
	// Recycle).
	shared *Shared
	// scratch backs allocation-free articulation passes. It makes Partition
	// methods non-reentrant; a Partition was already not safe for concurrent
	// use.
	scratch *graph.Scratch
	// removable[a] is area a's verdict from the last articulation pass over
	// its region: whether the region stays connected without it. Allocated
	// by the first pass; read only while the region's removableAt is current.
	removable []bool
	// stats accumulates hot-path telemetry as plain ints (the partition is
	// single-goroutine); see PartitionStats and FlushObs.
	stats PartitionStats
}

// NewPartition creates an empty partition (all areas unassigned) for the
// dataset under the evaluator's constraint set, on a private Shared built
// for it. The dataset's dissimilarity column drives heterogeneity; it must
// be configured. Callers that build many partitions of one dataset should
// build the Shared once and use NewPartitionShared.
func NewPartition(ds *data.Dataset, ev *constraint.Evaluator) (*Partition, error) {
	sh, err := NewShared(ds)
	if err != nil {
		return nil, err
	}
	return NewPartitionShared(sh, ev), nil
}

// SetHeteroKernel enables or disables the O(log n) incremental
// heterogeneity kernel. It is on by default; turning it off forces every
// heterogeneity update and delta onto the naive O(|R|) member scan, which is
// the reference implementation for differential testing. Existing indexes
// are dropped when disabling and rebuilt lazily when re-enabling.
func (p *Partition) SetHeteroKernel(on bool) {
	p.kernelOn = on
	for _, r := range p.regs {
		if r == nil {
			continue
		}
		if !on {
			p.releaseFen(r.fen)
			r.fen = nil
		} else {
			p.maybeBuildFen(r)
		}
	}
}

// HeteroKernelEnabled reports whether the incremental kernel is active.
func (p *Partition) HeteroKernelEnabled() bool { return p.kernelOn }

// maybeBuildFen builds the region's Fenwick index when the kernel is on,
// none exists yet, and the region is large enough to profit.
func (p *Partition) maybeBuildFen(r *Region) {
	if !p.kernelOn || r.fen != nil || len(r.Members) < p.krn.minFen {
		return
	}
	p.krn.ensureRanks()
	f := p.acquireFen()
	for _, a := range r.Members {
		p.krn.add(f, a)
	}
	r.fen = f
	p.stats.FenwickBuilds++
}

// regionAbsDiff returns Σ_m Σ_attr |d_attr(area) − d_attr(m)| over the
// region's members, through the Fenwick index when built (O(attrs·log n)) or
// the naive scan otherwise. The area's own self-term, when it is a member,
// is zero under both paths.
func (p *Partition) regionAbsDiff(r *Region, area int) float64 {
	if r.fen != nil {
		p.stats.KernelQueries++
		return p.krn.query(r.fen, area)
	}
	p.stats.NaiveScans++
	return p.sumAbsDiff(area, r.Members)
}

// Dataset returns the underlying dataset.
func (p *Partition) Dataset() *data.Dataset { return p.ds }

// Graph returns the contiguity graph.
func (p *Partition) Graph() *graph.Graph { return p.g }

// Evaluator returns the constraint evaluator.
func (p *Partition) Evaluator() *constraint.Evaluator { return p.ev }

// NumRegions returns p, the number of regions.
func (p *Partition) NumRegions() int { return p.numRegions }

// Assignment returns the region id of the area, or Unassigned.
func (p *Partition) Assignment(area int) int { return p.assign[area] }

// Region returns the region with the given id, or nil.
func (p *Partition) Region(id int) *Region {
	if id < 0 || id >= len(p.regs) {
		return nil
	}
	return p.regs[id]
}

// RegionIDBound returns an exclusive upper bound on every region id this
// partition has issued (all current and past ids are < bound). Consumers
// size id-indexed caches with it; the bound only grows, since ids are never
// reused.
func (p *Partition) RegionIDBound() int { return p.nextID }

// liveIDs returns the ascending ids of the current regions, rebuilding the
// list after a structural change. The slice is internal: callers must not
// keep or modify it.
func (p *Partition) liveIDs() []int {
	if !p.liveOK {
		p.live = p.live[:0]
		for id, r := range p.regs {
			if r != nil {
				p.live = append(p.live, id)
			}
		}
		p.liveOK = true
	}
	return p.live
}

// RegionIDs returns all region ids in ascending order.
func (p *Partition) RegionIDs() []int {
	live := p.liveIDs()
	ids := make([]int, len(live))
	copy(ids, live)
	return ids
}

// DenseAssignment returns the per-area assignment with region ids densified
// to 0..p-1 in ascending-id order and -1 for unassigned areas — the shape
// warm starts and checkpoints use, independent of the sparse ids this
// partition happened to issue.
func (p *Partition) DenseAssignment() []int {
	out := make([]int, len(p.assign))
	for a := range out {
		out[a] = -1
	}
	for i, id := range p.liveIDs() {
		for _, a := range p.regs[id].Members {
			out[a] = i
		}
	}
	return out
}

// UnassignedAreas returns the areas not assigned to any region, ascending.
func (p *Partition) UnassignedAreas() []int {
	var out []int
	for a, r := range p.assign {
		if r == Unassigned {
			out = append(out, a)
		}
	}
	return out
}

// UnassignedCount returns |U0|.
func (p *Partition) UnassignedCount() int {
	c := 0
	for _, r := range p.assign {
		if r == Unassigned {
			c++
		}
	}
	return c
}

// insertRegion installs a region in the table at its id.
func (p *Partition) insertRegion(r *Region) {
	for len(p.regs) <= r.ID {
		p.regs = append(p.regs, nil)
	}
	p.regs[r.ID] = r
	p.numRegions++
	p.liveOK = false
}

// deleteRegion removes the region from the table and parks its shell on the
// free-list for reuse. The caller must have released r.fen already.
func (p *Partition) deleteRegion(r *Region) {
	p.regs[r.ID] = nil
	p.numRegions--
	p.liveOK = false
	p.freeRegs = append(p.freeRegs, r)
}

// Shell chunks double from minShellChunk up to maxShellChunk; each fresh
// shell holds room for shellMembers members before its first growth.
const (
	minShellChunk = 8
	maxShellChunk = 512
	shellMembers  = 4
)

// newShell returns a fresh Region shell from the current chunk, carving a
// new chunk (regions, trackers and member arena together) when it is used
// up.
func (p *Partition) newShell() *Region {
	if len(p.shells) == 0 {
		k := min(max(2*p.shellChunk, minShellChunk), maxShellChunk)
		p.shellChunk = k
		p.shells = make([]Region, k)
		trackers := p.ev.NewTrackers(k)
		arena := make([]int, k*shellMembers)
		for i := range p.shells {
			p.shells[i].Tracker = &trackers[i]
			p.shells[i].Members = arena[i*shellMembers : i*shellMembers : (i+1)*shellMembers]
		}
	}
	r := &p.shells[0]
	p.shells = p.shells[1:]
	return r
}

// NewRegion creates a region from the given unassigned areas and returns it.
// It panics if any area is already assigned — callers own that invariant.
func (p *Partition) NewRegion(areas ...int) *Region {
	var r *Region
	if n := len(p.freeRegs); n > 0 {
		r = p.freeRegs[n-1]
		p.freeRegs = p.freeRegs[:n-1]
		r.Members = r.Members[:0]
		r.Hetero = 0
		r.epoch, r.removableAt = 0, 0
		r.Tracker.Reset()
	} else {
		r = p.newShell()
	}
	if cap(r.Members) < len(areas) {
		r.Members = make([]int, 0, len(areas))
	}
	r.ID = p.nextID
	p.nextID++
	p.insertRegion(r)
	for _, a := range areas {
		p.addAreaTo(r, a)
	}
	return r
}

// AddArea assigns an unassigned area to the region.
func (p *Partition) AddArea(regionID, area int) {
	r := p.Region(regionID)
	if r == nil {
		panic(fmt.Sprintf("region: AddArea to unknown region %d", regionID))
	}
	p.addAreaTo(r, area)
}

func (p *Partition) addAreaTo(r *Region, area int) {
	if p.assign[area] != Unassigned {
		panic(fmt.Sprintf("region: area %d already assigned to region %d", area, p.assign[area]))
	}
	r.Hetero += p.regionAbsDiff(r, area)
	r.Members = append(r.Members, area)
	if r.fen != nil {
		p.krn.add(r.fen, area)
	} else {
		p.maybeBuildFen(r)
	}
	r.epoch++
	r.Tracker.Add(area)
	p.assign[area] = r.ID
}

// RemoveArea unassigns an area from its region. Removing the last member
// deletes the region. Contiguity of the remainder is the caller's concern
// (see CanRemove).
func (p *Partition) RemoveArea(area int) {
	id := p.assign[area]
	if id == Unassigned {
		panic(fmt.Sprintf("region: area %d is not assigned", area))
	}
	r := p.regs[id]
	idx := -1
	for i, a := range r.Members {
		if a == area {
			idx = i
			break
		}
	}
	r.Members[idx] = r.Members[len(r.Members)-1]
	r.Members = r.Members[:len(r.Members)-1]
	r.Tracker.Remove(area, r.Members)
	if r.fen != nil {
		p.krn.remove(r.fen, area)
	}
	r.Hetero -= p.regionAbsDiff(r, area)
	r.epoch++
	p.assign[area] = Unassigned
	if len(r.Members) == 0 {
		p.releaseFen(r.fen)
		r.fen = nil
		p.deleteRegion(r)
	}
}

// DissolveRegion unassigns every member of the region and deletes it.
func (p *Partition) DissolveRegion(regionID int) {
	r := p.Region(regionID)
	if r == nil {
		return
	}
	for _, a := range r.Members {
		p.assign[a] = Unassigned
	}
	p.releaseFen(r.fen)
	r.fen = nil
	p.deleteRegion(r)
}

// MergeRegions folds region srcID into dstID, keeping dstID. The merged
// region's members, tracker and heterogeneity are updated incrementally.
func (p *Partition) MergeRegions(dstID, srcID int) {
	if dstID == srcID {
		return
	}
	dst, src := p.Region(dstID), p.Region(srcID)
	if dst == nil || src == nil {
		panic(fmt.Sprintf("region: merge %d <- %d with unknown region", dstID, srcID))
	}
	// Cross heterogeneity between the two groups: one kernel query per
	// src member against dst (O(|src| log n)) instead of O(|src|·|dst|).
	var cross float64
	for _, a := range src.Members {
		cross += p.regionAbsDiff(dst, a)
	}
	dst.Hetero += src.Hetero + cross
	for _, a := range src.Members {
		p.assign[a] = dstID
	}
	dst.Members = append(dst.Members, src.Members...)
	if dst.fen != nil {
		for _, a := range src.Members {
			p.krn.add(dst.fen, a)
		}
	} else {
		p.maybeBuildFen(dst)
	}
	dst.epoch++
	dst.Tracker.Merge(src.Tracker)
	p.releaseFen(src.fen)
	src.fen = nil
	p.deleteRegion(src)
}

// MoveArea transfers an area from its current region to another existing
// region, updating aggregates and heterogeneity incrementally. Callers must
// ensure validity (donor contiguity, constraint satisfaction) beforehand.
func (p *Partition) MoveArea(area, toRegionID int) {
	p.RemoveArea(area)
	p.AddArea(toRegionID, area)
}

// sumAbsDiff returns the summed pairwise dissimilarity between the area and
// the members: Σ_m Σ_attr |d_attr(area) − d_attr(m)| (single-attribute H in
// the common case, Manhattan multivariate otherwise).
func (p *Partition) sumAbsDiff(area int, members []int) float64 {
	var s float64
	for _, row := range p.dis {
		da := row[area]
		for _, m := range members {
			s += math.Abs(da - row[m])
		}
	}
	return s
}

// PairDissimilarity returns the dissimilarity contribution of one area pair:
// Σ_attr |d_attr(a) − d_attr(b)|. It is the unit term of region
// heterogeneity, letting callers adjust a cached Σ_m |d_x − d_m| by a single
// member's arrival or departure in O(attrs).
func (p *Partition) PairDissimilarity(a, b int) float64 {
	return p.krn.pairDiff(a, b)
}

// AppendRegionState appends the exact mutable state of region id to dst —
// member count and order, Hetero bits, the tracker aggregates and, when the
// region has a Fenwick index, the index's size and totals plus the cells on
// the update paths of the given areas — and returns the extended slice. The
// mutation version is left out, so two appends taken any number of moves
// apart are equal exactly when the region is bit for bit back in the same
// state, provided every area added to or removed from it in between is among
// paths (no other Fenwick cell can have changed). The local search uses it
// to prove that a move sequence returned a region to an earlier state.
func (p *Partition) AppendRegionState(dst []uint64, id int, paths []int) []uint64 {
	r := p.regs[id]
	dst = append(dst, uint64(len(r.Members)))
	for _, a := range r.Members {
		dst = append(dst, uint64(a))
	}
	dst = append(dst, math.Float64bits(r.Hetero))
	dst = r.Tracker.AppendState(dst)
	if r.fen == nil {
		return append(dst, 0)
	}
	return p.krn.appendState(append(dst, 1), r.fen, paths)
}

// Heterogeneity returns H(P): the sum of internal heterogeneity over all
// regions (Equation 1 of the paper). It sums in ascending-id order, so the
// float result is identical run-to-run for the same partition, and it costs
// O(p) with no allocation once the live-id list is current.
func (p *Partition) Heterogeneity() float64 {
	var h float64
	for _, id := range p.liveIDs() {
		h += p.regs[id].Hetero
	}
	return h
}

// HeteroExact reports whether heterogeneity arithmetic on the partition's
// data is exact (Shared.HeteroExact).
func (p *Partition) HeteroExact() bool { return p.shared.exact }

// HeteroDeltaMove returns the change in H(P) if area moved from its current
// region to the target region, without mutating the partition. With the
// kernel on both sides cost O(attrs·log n); the area's self-term in its own
// region is zero, so no member needs to be excluded explicitly.
func (p *Partition) HeteroDeltaMove(area, toRegionID int) float64 {
	from := p.regs[p.assign[area]]
	to := p.regs[toRegionID]
	loss := p.regionAbsDiff(from, area)
	gain := p.regionAbsDiff(to, area)
	return gain - loss
}

// HeteroLoss returns the drop in the donor region's heterogeneity if the
// area left its current region — the donor half of HeteroDeltaMove. Paired
// with HeteroGain it lets callers evaluating one donor against many targets
// compute the loss once: DeltaMove(a, to) == HeteroGain(a, to) −
// HeteroLoss(a) with bitwise-identical results.
func (p *Partition) HeteroLoss(area int) float64 {
	return p.regionAbsDiff(p.regs[p.assign[area]], area)
}

// HeteroGain returns the rise in the target region's heterogeneity if the
// area joined it — the target half of HeteroDeltaMove.
func (p *Partition) HeteroGain(area, toRegionID int) float64 {
	return p.regionAbsDiff(p.regs[toRegionID], area)
}

// RegionConnected reports whether the region's members induce a connected
// subgraph.
func (p *Partition) RegionConnected(regionID int) bool {
	r := p.Region(regionID)
	if r == nil {
		return false
	}
	return p.removabilityPass(r)
}

// removabilityPass runs one articulation pass over the region's members,
// keeps its removability verdicts and reports whether the members induce a
// connected subgraph.
func (p *Partition) removabilityPass(r *Region) bool {
	art, connected := p.g.SubsetArticulation(p.scratch, r.Members)
	p.keepRemovable(r, art)
	return connected
}

// CanRemove reports whether removing the area keeps its region connected
// (or empties it). Single-member regions can always lose their member. The
// partition keeps the verdicts per region version: the first query after a
// mutation of the area's region answers every member in one articulation
// pass (O(|R| + induced edges)), and later queries until the next mutation
// are O(1).
func (p *Partition) CanRemove(area int) bool {
	id := p.assign[area]
	if id == Unassigned {
		return false
	}
	if r := p.regs[id]; r.removableAt != r.epoch {
		p.removabilityPass(r)
	}
	return p.removable[area]
}

// RemovabilityCurrent reports whether the partition holds removability
// verdicts for the region's current version, so that CanRemove on its
// members runs no pass.
func (p *Partition) RemovabilityCurrent(regionID int) bool {
	r := p.Region(regionID)
	return r != nil && r.removableAt == r.epoch
}

// RemovableAndBoundary reports the region's boundary: bu/bv list every
// incidence from a member (bu) to an area outside the region (bv) —
// including unassigned areas — one entry per adjacency. It runs the
// articulation pass CanRemove runs, so it also makes the region's
// removability verdicts current: local-search refresh discovers the
// affected areas and the verdicts in a single pass over the region instead
// of two. The returned slices are reusable scratch buffers valid until the
// partition's next articulation pass.
func (p *Partition) RemovableAndBoundary(regionID int) (bu, bv []int32) {
	r := p.Region(regionID)
	if r == nil {
		return nil, nil
	}
	art, bu, bv := p.g.SubsetArticulationBoundary(p.scratch, r.Members)
	p.keepRemovable(r, art)
	return bu, bv
}

// keepRemovable stores an articulation pass over the region's members as
// their removability verdicts for its current version, counting the pass
// when the verdicts were stale.
func (p *Partition) keepRemovable(r *Region, art []bool) {
	if r.removableAt == r.epoch {
		return
	}
	if p.removable == nil {
		p.removable = make([]bool, len(p.assign))
	}
	for i, a := range r.Members {
		p.removable[a] = !art[i]
	}
	r.removableAt = r.epoch
	p.stats.RemovabilityPasses++
}

// AdjacentToRegion reports whether the area has at least one neighbor in
// the region.
func (p *Partition) AdjacentToRegion(area, regionID int) bool {
	for _, nb := range p.g.Neighbors(area) {
		if p.assign[nb] == regionID {
			return true
		}
	}
	return false
}

// NeighborRegions returns the ids of regions adjacent to the given region
// (sharing at least one boundary edge), ascending.
func (p *Partition) NeighborRegions(regionID int) []int {
	r := p.Region(regionID)
	if r == nil {
		return nil
	}
	if n := len(p.regs); len(p.regMark) < n {
		p.regMark = append(p.regMark, make([]int, n-len(p.regMark))...)
	}
	p.markGen++
	out := make([]int, 0, 8)
	for _, a := range r.Members {
		for _, nb := range p.g.Neighbors(a) {
			id := p.assign[nb]
			if id != Unassigned && id != regionID && p.regMark[id] != p.markGen {
				p.regMark[id] = p.markGen
				out = append(out, id)
			}
		}
	}
	sort.Ints(out)
	return out
}

// BoundaryAreas returns the member areas of the region that have at least
// one neighbor outside it (unassigned or in another region), ascending.
func (p *Partition) BoundaryAreas(regionID int) []int {
	r := p.Region(regionID)
	if r == nil {
		return nil
	}
	var out []int
	for _, a := range r.Members {
		for _, nb := range p.g.Neighbors(a) {
			if p.assign[nb] != regionID {
				out = append(out, a)
				break
			}
		}
	}
	sort.Ints(out)
	return out
}

// BorderAreasBetween returns areas of region fromID adjacent to region toID,
// ascending — the swap candidates of Step 3 and the Tabu phase.
func (p *Partition) BorderAreasBetween(fromID, toID int) []int {
	r := p.Region(fromID)
	if r == nil {
		return nil
	}
	var out []int
	for _, a := range r.Members {
		if p.AdjacentToRegion(a, toID) {
			out = append(out, a)
		}
	}
	sort.Ints(out)
	return out
}

// AllSatisfied reports whether every region satisfies every constraint.
func (p *Partition) AllSatisfied() bool {
	for _, r := range p.regs {
		if r != nil && !r.Tracker.SatisfiedAll() {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the partition sharing the immutable dataset,
// graph, evaluator and the Shared pool state.
func (p *Partition) Clone() *Partition {
	c := &Partition{
		ds:         p.ds,
		g:          p.g,
		ev:         p.ev,
		dis:        p.dis,
		assign:     append([]int(nil), p.assign...),
		regs:       make([]*Region, len(p.regs)),
		numRegions: p.numRegions,
		nextID:     p.nextID,
		krn:        p.krn,
		kernelOn:   p.kernelOn,
		shared:     p.shared,
		scratch:    p.shared.getScratch(),
	}
	for id, r := range p.regs {
		if r == nil {
			continue
		}
		cr := &Region{
			ID:      r.ID,
			Members: append([]int(nil), r.Members...),
			Tracker: r.Tracker.Clone(),
			Hetero:  r.Hetero,
			epoch:   r.epoch,
		}
		// Fenwick trees are per-partition state: rebuild rather than
		// deep-copy so the pool stays private to each clone. So are the
		// removability verdicts: the clone's start stale.
		c.maybeBuildFen(cr)
		c.regs[id] = cr
	}
	return c
}

// Validate checks all partition invariants:
//   - assignment vector and region member lists agree,
//   - regions are disjoint and non-empty,
//   - every region is spatially contiguous,
//   - trackers and heterogeneity match naive recomputation.
//
// It hashes nothing: area ownership is one slice over the areas, contiguity
// is one articulation pass per region on the partition's scratch (whose
// removability verdicts it keeps), and one tracker is refilled per region.
// It costs O(n + Σ|R|²), a few milliseconds on a paper-scale answer.
func (p *Partition) Validate() error {
	count := 0
	// owner[a] is the first region found listing area a.
	owner := make([]int, len(p.assign))
	for a := range owner {
		owner[a] = Unassigned
	}
	want := p.ev.NewTracker()
	for id, r := range p.regs {
		if r == nil {
			continue
		}
		count++
		if id != r.ID {
			return fmt.Errorf("region: table slot %d != region id %d", id, r.ID)
		}
		if len(r.Members) == 0 {
			return fmt.Errorf("region: region %d is empty", id)
		}
		for _, a := range r.Members {
			if prev := owner[a]; prev != Unassigned {
				return fmt.Errorf("region: area %d in regions %d and %d", a, prev, id)
			}
			owner[a] = id
			if p.assign[a] != id {
				return fmt.Errorf("region: area %d assigned to %d but in region %d members", a, p.assign[a], id)
			}
		}
		if !p.removabilityPass(r) {
			return fmt.Errorf("region: region %d is not contiguous", id)
		}
		want.Reset()
		for _, a := range r.Members {
			want.Add(a)
		}
		for i := 0; i < p.ev.Len(); i++ {
			got, exp := r.Tracker.Value(i), want.Value(i)
			if math.Abs(got-exp) > 1e-6 && !(math.IsNaN(got) && math.IsNaN(exp)) {
				return fmt.Errorf("region: region %d constraint %d tracker %g != recompute %g", id, i, got, exp)
			}
		}
		var h float64
		for _, row := range p.dis {
			for i := 0; i < len(r.Members); i++ {
				for j := i + 1; j < len(r.Members); j++ {
					h += math.Abs(row[r.Members[i]] - row[r.Members[j]])
				}
			}
		}
		if math.Abs(h-r.Hetero) > 1e-6*(1+math.Abs(h)) {
			return fmt.Errorf("region: region %d heterogeneity %g != recompute %g", id, r.Hetero, h)
		}
	}
	if count != p.numRegions {
		return fmt.Errorf("region: table holds %d regions but counter says %d", count, p.numRegions)
	}
	for a, id := range p.assign {
		if id != Unassigned && owner[a] != id {
			return fmt.Errorf("region: area %d assigned to %d but not a member", a, id)
		}
	}
	return nil
}

// PartitionFromRegions builds a partition from explicit region member lists,
// assigning region ids 1..len(regions) in list order. Areas absent from every
// list stay unassigned. Unlike NewRegion it validates instead of panicking:
// out-of-range and doubly-assigned areas return an error. It builds a
// private Shared for the dataset; the sharded solve pipeline, which folds
// per-shard solutions back into one global partition in a deterministic
// order, merges with PartitionFromRegionsShared on its artifact instead.
func PartitionFromRegions(ds *data.Dataset, ev *constraint.Evaluator, regions [][]int) (*Partition, error) {
	sh, err := NewShared(ds)
	if err != nil {
		return nil, err
	}
	return PartitionFromRegionsShared(sh, ev, regions)
}

// fillRegions seeds the empty partition with the given member lists,
// validating instead of panicking.
func (p *Partition) fillRegions(regions [][]int) error {
	n := p.ds.N()
	// seen[a] == ri+1 marks an area already listed by list ri.
	seen := make([]int32, n)
	for ri, members := range regions {
		if len(members) == 0 {
			return fmt.Errorf("region: region list %d is empty", ri)
		}
		for _, a := range members {
			if a < 0 || a >= n {
				return fmt.Errorf("region: region list %d has out-of-range area %d", ri, a)
			}
			if id := p.assign[a]; id != Unassigned {
				return fmt.Errorf("region: area %d in region lists %d and %d", a, id-1, ri)
			}
			if seen[a] == int32(ri)+1 {
				return fmt.Errorf("region: region list %d repeats area %d", ri, a)
			}
			seen[a] = int32(ri) + 1
		}
		p.NewRegion(members...)
	}
	return nil
}

// Summary captures the headline numbers of a solution.
type Summary struct {
	P             int
	UnassignedLen int
	Heterogeneity float64
}

// Summarize returns the partition's summary.
func (p *Partition) Summarize() Summary {
	return Summary{
		P:             p.NumRegions(),
		UnassignedLen: p.UnassignedCount(),
		Heterogeneity: p.Heterogeneity(),
	}
}
