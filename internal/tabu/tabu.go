// Package tabu implements the FaCT local-search phase: a Tabu search that
// moves areas between neighboring regions to minimize the overall
// heterogeneity H(P) without violating any user-defined constraint, without
// breaking contiguity, and without changing the number of regions p.
//
// The hot path is fully incremental: candidate moves live in an indexed
// min-heap keyed by (delta, area, target), the current objective value is
// maintained by applied deltas instead of per-iteration recomputation, and
// donor-side removability is derived once per region mutation epoch from a
// single articulation-point pass rather than one BFS per candidate. Once a
// non-improving stretch is proven to repeat an exact cycle, its remaining
// full periods are accounted for without being executed (cycle.go). See
// docs/ALGORITHM.md ("Complexity of the incremental kernels", "Cycle
// fast-forward").
package tabu

import (
	"context"
	"math"

	"emp/internal/fault"
	"emp/internal/flight"
	"emp/internal/region"
)

// Config tunes the search.
type Config struct {
	// Objective is the optimization target; nil means the paper's default
	// Heterogeneity.
	Objective Objective
	// Tenure is the tabu tenure: after moving an area out of a region,
	// moving it back is forbidden for this many iterations (aspiration:
	// allowed anyway when the move yields a new global best).
	Tenure int
	// MaxNoImprove stops the search after this many consecutive moves
	// that fail to improve the best heterogeneity found. Moves that repeat
	// a proven cycle count towards it without being executed.
	MaxNoImprove int
	// RecordMoves captures the applied move sequence in Stats.MoveLog,
	// for differential testing of kernel variants.
	RecordMoves bool
	// Restrict, when non-nil, confines the search to the marked areas: only
	// areas with Restrict[area] true are candidates to move (everything else
	// keeps its assignment, though restricted areas may still move *into*
	// any region). The slice must cover the dataset's area ids. The
	// cut-sharding seam repair uses this to search just the stitch-seam
	// frontier instead of the whole partition.
	Restrict []bool
	// Ctx, when non-nil, is polled once per iteration: on cancellation the
	// search stops admitting moves and returns through the normal path, so
	// the partition still ends at the best state found (moves past it are
	// reverted) and Stats stays consistent. Callers that must distinguish a
	// cancelled run from a converged one check Ctx.Err() themselves.
	Ctx context.Context
}

// Stats reports what the search did.
type Stats struct {
	// Moves is the number of accepted moves (including reverted ones and
	// ReplayedMoves).
	Moves int
	// ReplayedMoves is the part of Moves that repeated a proven cycle and
	// was accounted for without being executed (see cycle.go). A full run
	// would have made exactly these moves, with the same outcome.
	ReplayedMoves int
	// Improvements is the number of new-best events.
	Improvements int
	// BestScore is the objective value of the returned partition.
	BestScore float64
	// MoveLog is the applied move sequence (only when Config.RecordMoves).
	MoveLog []Move
	// Counters profiles the run's hot-path work (candidate evaluations,
	// heap churn, tabu rejections, removability passes).
	Counters Counters
}

// Move is one applied relocation, recorded when Config.RecordMoves is set.
type Move struct {
	Area, From, To int
}

type moveKey struct {
	area, to int
}

type appliedMove struct {
	area, from, to int
}

// tabuEnt is one tabu entry of an area: moving the area to the region is
// forbidden until the given iteration.
type tabuEnt struct {
	to    int
	until int
}

// donorEnt is one area's cached donor-side state, keyed by the donor region
// and its mutation version. loss is only meaningful when feas is true and
// the searcher runs the default heterogeneity objective.
type donorEnt struct {
	reg, ver int
	feas     bool
	loss     float64
}

// searcher holds the candidate-move incremental state. All per-area state
// lives in flat arrays indexed by area id — the refresh loop runs a few
// hundred times per move, so map hashing would dominate the whole search.
type searcher struct {
	p   *region.Partition
	obj Objective
	// restrict, when non-nil, masks the areas allowed to move
	// (Config.Restrict); candidates for unmasked areas are never generated.
	restrict []bool
	// hetero marks the default Heterogeneity objective, enabling donor-loss
	// batching: one HeteroLoss per area instead of one per (area, target).
	hetero bool
	// byArea indexes the live candidate items of each area; the same
	// items sit in the heap.
	byArea [][]*candItem
	heap   candHeap
	// tabuByArea[a] lists a's forbidden targets with expiry iterations.
	// An area accumulates few distinct past donors, so lookup is a short
	// linear scan with no hashing; expired entries are overwritten in place.
	tabuByArea [][]tabuEnt
	// remOK[a] caches a's donor-side contiguity verdict; valid while
	// remEpoch[region] matches the region's mutation epoch (0 = never
	// computed — live regions always have Version() >= 1).
	remOK    []bool
	remEpoch []int
	// donor[a] caches a's donor-side state — tracker feasibility of leaving
	// and (under the default objective) the heterogeneity loss — valid while
	// the area still sits in region reg at version ver. External areas keep
	// the same donor across consecutive refreshes, so the cached values —
	// bitwise identical to a recompute, since the donor's member and
	// Fenwick state are keyed by its version — save one tracker evaluation
	// and one kernel query per refresh.
	donor []donorEnt
	// cur is the running objective value, updated by applied deltas and
	// resynced from Objective.Total on improvements to stop float drift.
	cur float64
	// popped is the reusable pick-move scratch buffer.
	popped []*candItem
	// affStamp/affList/extList/stamp dedupe the refresh set without
	// clearing: affList collects f/t members (full refresh), extList the
	// external neighbors (surgical refresh of f/t-targeted candidates only).
	// extAdjF/extAdjT record — per refresh generation — whether an external
	// area turned up adjacent to the donor or target region in the boundary
	// pass, replacing a neighbor rescan in refreshExternal.
	affStamp []int
	affList  []int
	extList  []int
	extAdjF  []int
	extAdjT  []int
	stamp    int
	// targets is the per-area candidate-target scratch buffer.
	targets []int
	// movedArea is the area whose relocation triggered the current refresh
	// (-1 outside refreshAround). When a donor cache entry is exactly one
	// version behind, the region's only change since the entry was stored is
	// this area's arrival or departure, so the cached loss can be adjusted
	// by one pair term instead of re-queried.
	movedArea int
	// free recycles candidate items across refreshes.
	free []*candItem
	// cnt accumulates the run's hot-path counters as plain ints; flushed
	// into Stats and the bound registry at the end of Improve.
	cnt Counters
}

func newSearcher(p *region.Partition, obj Objective, restrict []bool) *searcher {
	n := p.Dataset().N()
	_, hetero := obj.(Heterogeneity)
	s := &searcher{
		p:          p,
		obj:        obj,
		restrict:   restrict,
		hetero:     hetero,
		byArea:     make([][]*candItem, n),
		tabuByArea: make([][]tabuEnt, n),
		remOK:      make([]bool, n),
		remEpoch:   make([]int, p.RegionIDBound()),
		donor:      make([]donorEnt, n),
		affStamp:   make([]int, n),
		extAdjF:    make([]int, n),
		extAdjT:    make([]int, n),
		movedArea:  -1,
	}
	s.buildAllCandidates()
	return s
}

// setTabu forbids moving the area back to the region until the iteration.
func (s *searcher) setTabu(area, to, until int) {
	ents := s.tabuByArea[area]
	for i := range ents {
		if ents[i].to == to {
			ents[i].until = until
			return
		}
	}
	s.tabuByArea[area] = append(ents, tabuEnt{to: to, until: until})
}

// tabuUntil returns the expiry iteration of the move, or 0 when it was
// never forbidden.
func (s *searcher) tabuUntil(key moveKey) int {
	for _, e := range s.tabuByArea[key.area] {
		if e.to == key.to {
			return e.until
		}
	}
	return 0
}

// Improve runs Tabu search on the partition in place. On return the
// partition is in the best state encountered (moves past the best are
// reverted). The caller must pass a partition whose regions all satisfy the
// constraints; the search preserves that invariant at every step.
func Improve(p *region.Partition, cfg Config) Stats {
	if cfg.Tenure <= 0 {
		cfg.Tenure = 10
	}
	// The span inherits the solve's trace identity from cfg.Ctx (when obs is
	// bound and carrying one), so the search phase shows up as a child in the
	// reconstructed span tree; the flight recorder rides the same context.
	sp, _ := met.span.StartCtx(cfg.Ctx)
	rec := flight.FromContext(cfg.Ctx)
	// The assignment builder is bound once: a method value taken per
	// improvement would allocate each time.
	dense := p.DenseAssignment
	obj := cfg.Objective
	if obj == nil {
		obj = Heterogeneity{}
	}
	s := newSearcher(p, obj, cfg.Restrict)
	s.cur = obj.Total(p)

	best := s.cur
	stats := Stats{BestScore: best}
	var undo []appliedMove
	var cyc cycles
	noImprove := 0
	for iter := 1; noImprove < cfg.MaxNoImprove; iter++ {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			break // cancelled: fall through to the revert-to-best epilogue
		}
		if fault.Inject("tabu.epoch") != nil {
			break // injected stop: same path as a cancellation
		}
		it, ok := s.pickMove(iter, best)
		if !ok {
			break
		}
		from := p.Assignment(it.key.area)
		p.MoveArea(it.key.area, it.key.to)
		s.cur += it.delta
		stats.Moves++
		if cfg.RecordMoves {
			stats.MoveLog = append(stats.MoveLog, Move{Area: it.key.area, From: from, To: it.key.to})
		}
		undo = append(undo, appliedMove{area: it.key.area, from: from, to: it.key.to})
		cyc.hash ^= zobrist(it.key.area, from) ^ zobrist(it.key.area, it.key.to)
		s.setTabu(it.key.area, from, iter+cfg.Tenure)
		s.refreshAround(it.key.area, from, it.key.to)

		improved := false
		if s.cur < best-1e-9 {
			// Re-evaluate exactly on candidate improvements so the
			// incremental value cannot drift across long runs.
			s.cur = s.obj.Total(p)
			if s.cur < best-1e-9 {
				improved = true
			}
		}
		if improved {
			best = s.cur
			stats.Improvements++
			noImprove = 0
			undo = undo[:0] // commit: current state is the new best
			cyc.restart()
			// New incumbent: one flight-recorder sample (H is the objective
			// score — exact heterogeneity under the default objective). The
			// partition sits exactly at the new best here (undo just
			// cleared), so this is also the one safe point to offer the
			// assignment for checkpointing; the tap builds it only if it
			// writes.
			rec.Improve(p.NumRegions(), best, stats.Moves, dense)
		} else {
			noImprove++
			// A proven cycle: account for its remaining full periods at
			// once, as a full run would have made them.
			if skip := s.skipCycles(&cyc, undo, iter, cfg.Tenure, cfg.MaxNoImprove-noImprove); skip > 0 {
				stats.Moves += skip
				stats.ReplayedMoves += skip
				noImprove += skip
				if cfg.RecordMoves {
					period := stats.MoveLog[len(stats.MoveLog)-cyc.period:]
					for k := 0; k < cyc.q; k++ {
						stats.MoveLog = append(stats.MoveLog, period...)
					}
				}
			}
		}
	}
	// Revert any moves made after the last improvement so the partition
	// ends at the best state found.
	cyc.revert(p, undo)
	stats.BestScore = s.obj.Total(p)
	stats.Counters = s.counters()
	stats.Counters.Add(cyc.skipped)
	sp.End()
	flushRun(&stats, p)
	return stats
}

// counters returns the run's hot-path counters so far, heap traffic
// included.
func (s *searcher) counters() Counters {
	c := s.cnt
	c.HeapPushes, c.HeapPops = s.heap.pushes, s.heap.pops
	return c
}

// tieEps is the tolerance under which two deltas count as tied and the
// deterministic key order breaks the tie. Exact float equality would let
// representation noise (e.g. kernel-on vs kernel-off rounding) pick
// different moves for semantically equal deltas.
func tieEps(d float64) float64 {
	a := math.Abs(d)
	if a < 1 {
		a = 1
	}
	return 1e-9 * a
}

// eligible reports whether the candidate may be applied at this iteration:
// not tabu, or tabu but yielding a new global best (aspiration).
func (s *searcher) eligible(it *candItem, iter int, best float64) bool {
	if exp := s.tabuUntil(it.key); iter < exp {
		if s.cur+it.delta < best-1e-9 {
			return true // aspiration: tabu but a new global best
		}
		s.cnt.TabuRejections++
		return false
	}
	return true
}

// pickMove selects the eligible candidate with the smallest delta; deltas
// within tieEps of the smallest eligible delta count as tied and the lowest
// (area, to) key wins. Candidates are popped off the heap in ascending
// (delta, key) order and pushed back afterwards, so a pick costs
// O(k log |cand|) where k is the number of tabu-blocked moves ahead of the
// winner plus the tie window — typically a handful — instead of a full
// candidate scan.
func (s *searcher) pickMove(iter int, best float64) (*candItem, bool) {
	popped := s.popped[:0]
	var chosen *candItem
	for s.heap.len() > 0 {
		it := s.heap.pop()
		popped = append(popped, it)
		if !s.eligible(it, iter, best) {
			continue
		}
		chosen = it
		limit := it.delta + tieEps(it.delta)
		for s.heap.len() > 0 && s.heap.min().delta <= limit {
			tied := s.heap.pop()
			popped = append(popped, tied)
			if s.eligible(tied, iter, best) && less(tied.key, chosen.key) {
				chosen = tied
			}
		}
		break
	}
	for _, it := range popped {
		s.heap.push(it)
	}
	s.popped = popped[:0]
	return chosen, chosen != nil
}

func less(a, b moveKey) bool {
	if a.area != b.area {
		return a.area < b.area
	}
	return a.to < b.to
}

// buildAllCandidates scans every region's boundary for valid moves.
func (s *searcher) buildAllCandidates() {
	for _, id := range s.p.RegionIDs() {
		for _, a := range s.p.BoundaryAreas(id) {
			s.refreshArea(a, -1, -1)
		}
	}
}

// canRemove answers the donor-side contiguity check through the per-epoch
// articulation cache: the first query after a region mutation computes
// removability for every member in one pass, later queries are O(1).
func (s *searcher) canRemove(r *region.Region, area int) bool {
	if r.ID >= len(s.remEpoch) {
		grown := make([]int, s.p.RegionIDBound())
		copy(grown, s.remEpoch)
		s.remEpoch = grown
	}
	if s.remEpoch[r.ID] != r.Version() {
		s.cnt.RemovabilityPasses++
		rem := s.p.RemovableMembers(r.ID)
		for i, m := range r.Members {
			s.remOK[m] = rem[i]
		}
		s.remEpoch[r.ID] = r.Version()
	}
	return s.remOK[area]
}

// primeRemovability fills the per-epoch removability cache from an already
// computed articulation pass, so the refresh loop's canRemove queries on the
// mutated regions are all O(1) hits.
func (s *searcher) primeRemovability(r *region.Region, rem []bool) {
	if r.ID >= len(s.remEpoch) {
		grown := make([]int, s.p.RegionIDBound())
		copy(grown, s.remEpoch)
		s.remEpoch = grown
	}
	if s.remEpoch[r.ID] == r.Version() {
		return
	}
	s.cnt.RemovabilityPasses++
	for i, m := range r.Members {
		s.remOK[m] = rem[i]
	}
	s.remEpoch[r.ID] = r.Version()
}

// refreshArea brings the candidate set of one area in sync with the current
// partition state, where f and t are the regions mutated by the triggering
// move (-1, -1 on the initial build). Existing heap items whose (area,
// target) key survives are re-keyed in place (one sift instead of a remove
// plus a push); vanished targets are removed and new ones inserted. Heap pop
// order is the total order (delta, area, to), so in-place re-keying yields
// exactly the moves a drop-and-rebuild would. Under the default objective,
// surviving items targeting regions other than f and t reuse their cached
// target-side gain — those regions' Fenwick state is unchanged since the
// gain was computed, so a re-query would return the bitwise-identical value.
func (s *searcher) refreshArea(a, f, t int) {
	p := s.p
	if s.restrict != nil && !s.restrict[a] {
		s.dropCandidates(a)
		return
	}
	from := p.Assignment(a)
	if from == region.Unassigned {
		s.dropCandidates(a)
		return
	}
	// Enumerate distinct neighbor regions first: interior areas bail out
	// before paying any donor-side check. Degrees are small, so the dedup
	// is a linear scan of the scratch slice.
	targets := s.targets[:0]
	for _, nb := range p.Graph().Neighbors(a) {
		to := p.Assignment(int(nb))
		if to == region.Unassigned || to == from {
			continue
		}
		dup := false
		for _, prev := range targets {
			if prev == to {
				dup = true
				break
			}
		}
		if !dup {
			targets = append(targets, to)
		}
	}
	s.targets = targets
	if len(targets) == 0 {
		s.dropCandidates(a)
		return
	}
	r := p.Region(from)
	if r.Size() <= 1 { // moving the only member would change p
		s.dropCandidates(a)
		return
	}
	if !s.canRemove(r, a) {
		s.dropCandidates(a)
		return
	}
	// Donor-loss batching: under the default heterogeneity objective the
	// delta of every target shares the same donor term, so compute it once.
	// HeteroGain − HeteroLoss is exactly the gain − loss subtraction inside
	// HeteroDeltaMove, so the values are bitwise identical. The donor just
	// mutated, so the cache entry is stale by construction. When it is
	// exactly one version behind, the only change since it was stored is the
	// moved area entering (donor == t) or leaving (donor == f), so the loss
	// is adjusted by that one pair term in O(attrs) instead of re-queried —
	// any rounding drift versus a fresh query is orders of magnitude below
	// the tieEps window that move selection already tolerates.
	ent := &s.donor[a]
	oneBehind := ent.reg == from && ent.ver == r.Version()-1 && ent.feas
	prevLoss := ent.loss
	ent.reg, ent.ver = from, r.Version()
	ent.feas = r.Tracker.SatisfiedAllAfterRemove(a, r.Members)
	ent.loss = 0
	if !ent.feas {
		s.dropCandidates(a)
		return
	}
	var loss float64
	if s.hetero {
		if oneBehind && s.movedArea >= 0 {
			if from == t {
				loss = prevLoss + p.PairDissimilarity(a, s.movedArea)
			} else {
				loss = prevLoss - p.PairDissimilarity(a, s.movedArea)
			}
		} else {
			loss = p.HeteroLoss(a)
		}
		ent.loss = loss
	}
	old := s.byArea[a]
	live := old[:0]
	for _, it := range old {
		to := it.key.to
		want := false
		for _, tgt := range targets {
			if tgt == to {
				want = true
				break
			}
		}
		// Targets other than f and t did not mutate, so the surviving item's
		// tracker-add verdict (true when it was stored) and cached gain are
		// both still exact. For f and t the verdict is re-checked and the
		// gain advanced by the moved area's single pair term — the item was
		// refreshed at the target's previous mutation, so its gain is
		// exactly one member change behind.
		mutated := to == f || to == t
		if !want || (mutated && !p.Region(to).Tracker.SatisfiedAllAfterAdd(a)) {
			s.heap.remove(it)
			s.free = append(s.free, it)
			continue
		}
		s.cnt.CandidateEvals++
		var delta float64
		if s.hetero {
			if mutated {
				if to == t {
					it.gain += p.PairDissimilarity(a, s.movedArea)
				} else {
					it.gain -= p.PairDissimilarity(a, s.movedArea)
				}
			}
			delta = it.gain - loss
		} else {
			delta = s.obj.DeltaMove(p, a, to)
		}
		if delta != it.delta {
			it.delta = delta
			s.heap.fix(it)
		}
		live = append(live, it)
	}
	for _, to := range targets {
		present := false
		for _, it := range live {
			if it.key.to == to {
				present = true
				break
			}
		}
		if present || !p.Region(to).Tracker.SatisfiedAllAfterAdd(a) {
			continue
		}
		s.cnt.CandidateEvals++
		var gain, delta float64
		if s.hetero {
			gain = p.HeteroGain(a, to)
			delta = gain - loss
		} else {
			delta = s.obj.DeltaMove(p, a, to)
		}
		it := s.newItem(moveKey{area: a, to: to}, delta)
		it.gain = gain
		live = append(live, it)
		s.heap.push(it)
	}
	s.byArea[a] = live
}

// newItem recycles a candidate item from the free list.
func (s *searcher) newItem(key moveKey, delta float64) *candItem {
	if n := len(s.free); n > 0 {
		it := s.free[n-1]
		s.free = s.free[:n-1]
		it.key, it.delta = key, delta
		return it
	}
	return &candItem{key: key, delta: delta}
}

// dropCandidates removes all candidate items of one area.
func (s *searcher) dropCandidates(a int) {
	items := s.byArea[a]
	if len(items) == 0 {
		return
	}
	for _, it := range items {
		s.heap.remove(it)
		s.free = append(s.free, it)
	}
	s.byArea[a] = items[:0]
}

// refreshAround rebuilds the candidate entries affected by a move between
// regions f and t. An area's candidate set can only have changed if it is a
// member of f or t adjacent to a foreign region (its delta, removability, or
// tracker feasibility moved), an external area adjacent to an f/t member
// (its candidates toward f or t went stale), or an f/t member holding stale
// candidates from before it turned interior. Any candidate targeting f or t
// belongs to an area adjacent to one of their members, so this set also
// covers stale targets. Interior members — the bulk of both regions — are
// skipped entirely.
//
// Both mutated regions need an articulation pass this move anyway, so the
// affected set is read off RemovableAndBoundary's boundary incidences: one
// traversal per region yields the removability verdicts (primed into the
// canRemove cache) and every member-to-outside adjacency, replacing a second
// full member-and-neighbor sweep. Members only need the extra byArea check
// for stale candidates from before they turned interior.
//
// Members of f and t get a full refreshArea: their donor side mutated.
// External areas get the surgical refreshExternal: only their candidates
// targeting f or t can be stale. Their other candidates (b → S) keep exact
// cached deltas, because every move touching b's own region or S refreshed
// them — so both regions' member sets, and hence their Fenwick trees, are
// unchanged since the delta was computed, and a recompute would return the
// bitwise-identical value.
func (s *searcher) refreshAround(a, f, t int) {
	p := s.p
	s.movedArea = a
	s.stamp++
	s.affList = s.affList[:0]
	s.extList = s.extList[:0]
	collect := func(id int, adjStamp []int) {
		r := p.Region(id)
		if r == nil {
			return
		}
		rem, bu, bv := p.RemovableAndBoundary(id)
		s.primeRemovability(r, rem)
		for i := range bu {
			v := int(bv[i])
			to := p.Assignment(v)
			if to == region.Unassigned {
				continue
			}
			adjStamp[v] = s.stamp
			if u := int(bu[i]); s.affStamp[u] != s.stamp {
				s.affStamp[u] = s.stamp
				s.affList = append(s.affList, u)
			}
			if to != f && to != t && s.affStamp[v] != s.stamp {
				s.affStamp[v] = s.stamp
				s.extList = append(s.extList, v)
			}
		}
	}
	collect(f, s.extAdjF)
	collect(t, s.extAdjT)
	// A member of f or t can hold stale candidates without appearing in the
	// boundary pairs only by having just turned interior — its last foreign
	// neighbor was the moved area itself (only a's assignment changed), so
	// scanning a and its neighbors covers every such member without a sweep
	// over both full member lists.
	stale := func(m int) {
		if to := p.Assignment(m); (to == f || to == t) && len(s.byArea[m]) > 0 && s.affStamp[m] != s.stamp {
			s.affStamp[m] = s.stamp
			s.affList = append(s.affList, m)
		}
	}
	stale(a)
	for _, nb := range p.Graph().Neighbors(a) {
		stale(int(nb))
	}
	for _, m := range s.affList {
		s.refreshArea(m, f, t)
	}
	for _, b := range s.extList {
		s.refreshExternal(b, f, t, s.extAdjF[b] == s.stamp, s.extAdjT[b] == s.stamp)
	}
}

// removeItem removes one candidate item from the heap and its area's index.
func (s *searcher) removeItem(a int, it *candItem) {
	items := s.byArea[a]
	for i, o := range items {
		if o == it {
			items[i] = items[len(items)-1]
			s.byArea[a] = items[:len(items)-1]
			break
		}
	}
	s.heap.remove(it)
	s.free = append(s.free, it)
}

// refreshExternal refreshes the candidates of external area b (a member of
// neither f nor t) that target f or t: each of the two slots is re-keyed in
// place when it survives, removed when b lost the adjacency or feasibility,
// and inserted fresh when b gained it. The adjF/adjT verdicts come from the
// boundary pass — b is adjacent to f iff it appeared among f's outside
// incidences — so no neighbor rescan is needed. b's donor region did not
// mutate, so its cached removability verdict, cached donor loss, and all
// candidates toward other regions stay valid.
func (s *searcher) refreshExternal(b, f, t int, adjF, adjT bool) {
	if s.restrict != nil && !s.restrict[b] {
		return // unmasked areas never hold candidate items to refresh
	}
	p := s.p
	var itF, itT *candItem
	for _, it := range s.byArea[b] {
		if it.key.to == f {
			itF = it
		} else if it.key.to == t {
			itT = it
		}
	}
	ok := adjF || adjT
	var loss float64
	if ok {
		from := p.Assignment(b)
		r := p.Region(from)
		if r.Size() <= 1 || !s.canRemove(r, b) {
			ok = false
		} else {
			ent := &s.donor[b]
			if ent.reg != from || ent.ver != r.Version() {
				ent.reg, ent.ver = from, r.Version()
				ent.feas = r.Tracker.SatisfiedAllAfterRemove(b, r.Members)
				ent.loss = 0
				if ent.feas && s.hetero {
					ent.loss = p.HeteroLoss(b)
				}
			}
			ok = ent.feas
			loss = ent.loss
		}
	}
	upsert := func(to int, adj bool, it *candItem) {
		if ok && adj && p.Region(to).Tracker.SatisfiedAllAfterAdd(b) {
			s.cnt.CandidateEvals++
			if it != nil {
				// Kept items were refreshed at the target's previous
				// mutation, so the cached gain is exactly one member change
				// behind: advance it by the moved area's pair term.
				var delta float64
				if s.hetero {
					if to == t {
						it.gain += p.PairDissimilarity(b, s.movedArea)
					} else {
						it.gain -= p.PairDissimilarity(b, s.movedArea)
					}
					delta = it.gain - loss
				} else {
					delta = s.obj.DeltaMove(p, b, to)
				}
				if delta != it.delta {
					it.delta = delta
					s.heap.fix(it)
				}
			} else {
				var gain, delta float64
				if s.hetero {
					gain = p.HeteroGain(b, to)
					delta = gain - loss
				} else {
					delta = s.obj.DeltaMove(p, b, to)
				}
				ni := s.newItem(moveKey{area: b, to: to}, delta)
				ni.gain = gain
				s.byArea[b] = append(s.byArea[b], ni)
				s.heap.push(ni)
			}
			return
		}
		if it != nil {
			s.removeItem(b, it)
		}
	}
	upsert(f, adjF, itF)
	upsert(t, adjT, itT)
}
