package tabu

import (
	"math"

	"emp/internal/fault"
	"emp/internal/region"
)

// fallbackSearcher is the pre-kernel implementation of the search, kept
// verbatim (plus the tolerance tie-break fix) as an independent reference
// for the differential test and the "naive" leg of BenchmarkTabuImprove8k.
// Its per-iteration costs are the ones the incremental searcher eliminates:
// a full objective recompute per pick, a linear scan over the whole
// candidate map, one BFS per donor-contiguity check, and a candidate-map
// sweep per refresh. It executes every move (no cycle fast-forward).
type fallbackSearcher struct {
	p        *region.Partition
	obj      Objective
	restrict []bool              // Config.Restrict mask (nil = unrestricted)
	cand     map[moveKey]float64 // valid moves and their objective delta
	tabu     map[moveKey]int     // forbidden until iteration
	// cnt accumulates the run's hot-path counters (no heap here, so the
	// heap fields stay zero).
	cnt Counters
}

// improveFallback mirrors Improve using the fallback searcher. It must pick
// the same move sequence as the incremental searcher on every input — the
// differential tests assert exactly that.
func improveFallback(p *region.Partition, cfg Config) Stats {
	obj := cfg.Objective
	if obj == nil {
		obj = Heterogeneity{}
	}
	s := &fallbackSearcher{
		p:        p,
		obj:      obj,
		restrict: cfg.Restrict,
		cand:     make(map[moveKey]float64),
		tabu:     make(map[moveKey]int),
	}
	s.buildAllCandidates()

	best := obj.Total(p)
	stats := Stats{BestScore: best}
	var undo []appliedMove
	noImprove := 0
	for iter := 1; noImprove < cfg.MaxNoImprove; iter++ {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			break // cancelled: fall through to the revert-to-best epilogue
		}
		if fault.Inject("tabu.epoch") != nil {
			break // injected stop: same path as a cancellation
		}
		key, ok := s.pickMove(iter, best)
		if !ok {
			break
		}
		from := p.Assignment(key.area)
		p.MoveArea(key.area, key.to)
		stats.Moves++
		if cfg.RecordMoves {
			stats.MoveLog = append(stats.MoveLog, Move{Area: key.area, From: from, To: key.to})
		}
		undo = append(undo, appliedMove{area: key.area, from: from, to: key.to})
		s.tabu[moveKey{area: key.area, to: from}] = iter + cfg.Tenure
		s.refreshAround(from, key.to)

		h := s.obj.Total(p)
		if h < best-1e-9 {
			best = h
			stats.Improvements++
			noImprove = 0
			undo = undo[:0] // commit: current state is the new best
		} else {
			noImprove++
		}
	}
	for i := len(undo) - 1; i >= 0; i-- {
		m := undo[i]
		p.MoveArea(m.area, m.from)
	}
	stats.BestScore = s.obj.Total(p)
	stats.Counters = s.cnt
	return stats
}

// pickMove scans every candidate for the smallest eligible delta, breaking
// ties within tieEps by the deterministic key order.
func (s *fallbackSearcher) pickMove(iter int, best float64) (moveKey, bool) {
	cur := s.obj.Total(s.p)
	eligible := func(k moveKey, d float64) bool {
		if exp, isTabu := s.tabu[k]; isTabu && iter < exp {
			return cur+d < best-1e-9
		}
		return true
	}
	dmin, found := math.Inf(1), false
	for k, d := range s.cand {
		if !eligible(k, d) {
			s.cnt.TabuRejections++
			continue
		}
		if d < dmin {
			dmin, found = d, true
		}
	}
	if !found {
		return moveKey{}, false
	}
	limit := dmin + tieEps(dmin)
	var bestKey moveKey
	chosen := false
	for k, d := range s.cand {
		if !eligible(k, d) || d > limit {
			continue
		}
		if !chosen || less(k, bestKey) {
			bestKey, chosen = k, true
		}
	}
	return bestKey, chosen
}

func (s *fallbackSearcher) buildAllCandidates() {
	for _, id := range s.p.RegionIDs() {
		for _, a := range s.p.BoundaryAreas(id) {
			s.addCandidatesFor(a)
		}
	}
}

// addCandidatesFor registers all valid moves of one area, answering the
// donor-side contiguity question with a fresh map-based BFS
// (graph.ConnectedSubsetExcluding), independent of the partition's verdicts.
func (s *fallbackSearcher) addCandidatesFor(a int) {
	p := s.p
	if s.restrict != nil && !s.restrict[a] {
		return
	}
	from := p.Assignment(a)
	if from == region.Unassigned {
		return
	}
	r := p.Region(from)
	if r.Size() <= 1 {
		return // moving the only member would change p
	}
	s.cnt.RemovabilityPasses++
	if !p.Graph().ConnectedSubsetExcluding(r.Members, a) || !r.Tracker.SatisfiedAllAfterRemove(a, r.Members) {
		return
	}
	seen := map[int]bool{from: true}
	for _, nb := range p.Graph().Neighbors(a) {
		to := p.Assignment(int(nb))
		if to == region.Unassigned || seen[to] {
			continue
		}
		seen[to] = true
		if !p.Region(to).Tracker.SatisfiedAllAfterAdd(a) {
			continue
		}
		s.cnt.CandidateEvals++
		s.cand[moveKey{area: a, to: to}] = s.obj.DeltaMove(p, a, to)
	}
}

// refreshAround rebuilds candidates for every member of f and t and every
// area adjacent to them, sweeping the whole candidate map for stale keys.
func (s *fallbackSearcher) refreshAround(f, t int) {
	p := s.p
	affected := make(map[int]bool)
	mark := func(id int) {
		r := p.Region(id)
		if r == nil {
			return
		}
		for _, a := range r.Members {
			affected[a] = true
			for _, nb := range p.Graph().Neighbors(a) {
				if p.Assignment(int(nb)) != region.Unassigned {
					affected[int(nb)] = true
				}
			}
		}
	}
	mark(f)
	mark(t)
	for k := range s.cand {
		if affected[k.area] || k.to == f || k.to == t {
			delete(s.cand, k)
		}
	}
	for a := range affected {
		s.addCandidatesFor(a)
	}
}
