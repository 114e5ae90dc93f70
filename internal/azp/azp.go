// Package azp implements the AZP family of fixed-k zoning algorithms
// (Openshaw 1977; Openshaw & Rao 1995), the "greedy aggregation"
// region-building lineage the paper's related work cites ([39]): grow a
// random contiguous k-partition, then improve it by moving boundary areas
// between regions. The improvement phase reuses this repository's Tabu
// searcher (AZP-Tabu in the literature), optimizing the same pluggable
// objective as FaCT's phase 3.
//
// Like SKATER, AZP fixes k and knows nothing about EMP's enriched
// constraints; it serves as a quality baseline and as the initialization
// study for the local-search machinery.
package azp

import (
	"fmt"
	"math/rand"

	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/region"
	"emp/internal/tabu"
)

// Config tunes the solver.
type Config struct {
	// Objective is the optimization target (nil = heterogeneity H(P)).
	Objective tabu.Objective
	// Restarts is the number of random initializations; the best final
	// objective wins. 0 means 1.
	Restarts int
	// Seed drives the randomness.
	Seed int64
}

// Result is an AZP run outcome.
type Result struct {
	// Assignment maps areas to dense region indices in [0, K).
	Assignment []int
	// K is the number of regions.
	K int
	// Objective is the final objective value (H(P) by default).
	Objective float64
}

// Solve produces k contiguous regions covering all areas.
func Solve(ds *data.Dataset, k int, cfg Config) (*Result, error) {
	n := ds.N()
	if n == 0 {
		return nil, fmt.Errorf("azp: empty dataset")
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("azp: k = %d out of range [1, %d]", k, n)
	}
	g := ds.Graph()
	_, comps := g.Components()
	if k < comps {
		return nil, fmt.Errorf("azp: k = %d below the number of connected components (%d)", k, comps)
	}
	ev, err := constraint.NewEvaluator(constraint.Set{}, ds.Column)
	if err != nil {
		return nil, err
	}
	obj := cfg.Objective
	if obj == nil {
		obj = tabu.Heterogeneity{}
	}
	restarts := cfg.Restarts
	if restarts <= 0 {
		restarts = 1
	}

	var best *region.Partition
	bestScore := 0.0
	for r := 0; r < restarts; r++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(r)))
		p, err := randomContiguousPartition(ds, ev, k, rng)
		if err != nil {
			return nil, err
		}
		tabu.Improve(p, tabu.Config{Objective: obj, Tenure: 10, MaxNoImprove: n})
		score := obj.Total(p)
		if best == nil || score < bestScore {
			best, bestScore = p, score
		}
	}

	assign := make([]int, n)
	idx := make(map[int]int)
	for i, id := range best.RegionIDs() {
		idx[id] = i
	}
	for a := 0; a < n; a++ {
		assign[a] = idx[best.Assignment(a)]
	}
	return &Result{Assignment: assign, K: best.NumRegions(), Objective: bestScore}, nil
}

// randomContiguousPartition seeds k regions on random areas (spread across
// components proportionally, with at least one per component) and grows
// them breadth-first until every area is assigned.
func randomContiguousPartition(ds *data.Dataset, ev *constraint.Evaluator, k int, rng *rand.Rand) (*region.Partition, error) {
	g := ds.Graph()
	p, err := region.NewPartition(ds, ev)
	if err != nil {
		return nil, err
	}
	members := g.ComponentMembers()
	// Seat one seed per component first, then distribute the rest across
	// components proportionally to size.
	type seat struct{ area int }
	var seeds []seat
	quota := make([]int, len(members))
	for i := range members {
		quota[i] = 1
	}
	remaining := k - len(members)
	total := ds.N()
	for i, m := range members {
		extra := remaining * len(m) / total
		quota[i] += extra
	}
	// Fix rounding drift.
	assigned := 0
	for _, q := range quota {
		assigned += q
	}
	for i := 0; assigned < k; i = (i + 1) % len(members) {
		if quota[i] < len(members[i]) {
			quota[i]++
			assigned++
		}
	}
	for i, m := range members {
		if quota[i] > len(m) {
			quota[i] = len(m)
		}
		perm := rng.Perm(len(m))
		for j := 0; j < quota[i]; j++ {
			seeds = append(seeds, seat{m[perm[j]]})
		}
	}
	for _, s := range seeds {
		p.NewRegion(s.area)
	}
	// Breadth-first growth: sweep unassigned areas, attaching each to a
	// random adjacent region, until everything is assigned.
	for {
		updated := false
		for _, a := range rng.Perm(ds.N()) {
			if p.Assignment(a) != region.Unassigned {
				continue
			}
			var targets []int
			seen := map[int]bool{}
			for _, nb := range g.Neighbors(a) {
				id := p.Assignment(int(nb))
				if id != region.Unassigned && !seen[id] {
					seen[id] = true
					targets = append(targets, id)
				}
			}
			if len(targets) > 0 {
				p.AddArea(targets[rng.Intn(len(targets))], a)
				updated = true
			}
		}
		if !updated {
			break
		}
	}
	if p.UnassignedCount() != 0 {
		return nil, fmt.Errorf("azp: %d areas unreachable from any seed", p.UnassignedCount())
	}
	return p, nil
}
