package experiments

import (
	"fmt"

	"emp/internal/azp"
	"emp/internal/constraint"
	"emp/internal/fact"
	"emp/internal/skater"
	"emp/internal/solvecache"
	"emp/internal/tabu"
)

// Ablations runs the design-choice studies DESIGN.md calls out, beyond the
// paper's own artifacts: merge limit, construction iterations and
// worker count, local-search algorithm, area pickup order, and a quality
// comparison against the SKATER tree-partition baseline at the same k.
func Ablations(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	ds, err := dataset(cfg, "2k")
	if err != nil {
		return nil, err
	}
	defaults := constraint.Set{defaultMin(), defaultAvg(), defaultSum()}
	hardAvg := constraint.Set{avgRange(2000, 4000)}
	var tables []Table

	// Merge limit on the hard AVG range (drives round-2 merges).
	ml := Table{
		ID:     "ablation",
		Title:  "Ablation: AVG merge limit (range 3k±1k)",
		Header: []string{"merge_limit", "p", "unassigned", "construction"},
	}
	for _, limit := range []int{1, 3, 6, 12} {
		res, err := fact.Solve(ds, hardAvg, fact.Config{MergeLimit: limit, Seed: cfg.Seed, SkipLocalSearch: true})
		if err != nil {
			return nil, err
		}
		ml.Rows = append(ml.Rows, []string{
			fmt.Sprintf("%d", limit), fmt.Sprintf("%d", res.P),
			fmt.Sprintf("%d", res.Unassigned), secs(res.ConstructionTime.Seconds()),
		})
	}
	tables = append(tables, ml)

	// Construction iterations and parallelism.
	it := Table{
		ID:     "ablation",
		Title:  "Ablation: construction iterations (best p kept) and workers",
		Header: []string{"iterations", "workers", "p", "construction"},
	}
	for _, row := range []struct{ iters, workers int }{{1, 1}, {3, 1}, {3, 3}, {5, 1}} {
		res, err := fact.Solve(ds, defaults, fact.Config{
			Iterations: row.iters, Pool: solvecache.NewPool(row.workers), Seed: cfg.Seed, SkipLocalSearch: true,
		})
		if err != nil {
			return nil, err
		}
		it.Rows = append(it.Rows, []string{
			fmt.Sprintf("%d", row.iters), fmt.Sprintf("%d", row.workers),
			fmt.Sprintf("%d", res.P), secs(res.ConstructionTime.Seconds()),
		})
	}
	tables = append(tables, it)

	// Local-search algorithm and objective.
	ls := Table{
		ID:     "ablation",
		Title:  "Ablation: local-search algorithm and objective",
		Header: []string{"algorithm", "objective", "hetero_improve", "moves", "time"},
	}
	variants := []struct {
		name, objName string
		cfg           fact.Config
	}{
		{"tabu", "heterogeneity", fact.Config{Seed: cfg.Seed}},
		{"anneal", "heterogeneity", fact.Config{Seed: cfg.Seed, LocalSearch: fact.LocalSearchAnneal}},
		{"tabu", "compactness", fact.Config{Seed: cfg.Seed, Objective: tabu.NewCompactness(ds.Polygons)}},
	}
	for _, v := range variants {
		res, err := fact.Solve(ds, defaults, v.cfg)
		if err != nil {
			return nil, err
		}
		ls.Rows = append(ls.Rows, []string{
			v.name, v.objName,
			fmt.Sprintf("%.1f%%", res.HeteroImprovement()*100),
			fmt.Sprintf("%d", res.TabuMoves),
			secs(res.LocalSearchTime.Seconds()),
		})
	}
	tables = append(tables, ls)

	// Area pickup order.
	ord := Table{
		ID:     "ablation",
		Title:  "Ablation: area pickup order",
		Header: []string{"order", "p", "unassigned"},
	}
	for _, o := range []fact.Order{fact.OrderRandom, fact.OrderAscending, fact.OrderDescending} {
		res, err := fact.Solve(ds, defaults, fact.Config{Order: o, Seed: cfg.Seed, SkipLocalSearch: true})
		if err != nil {
			return nil, err
		}
		ord.Rows = append(ord.Rows, []string{o.String(), fmt.Sprintf("%d", res.P), fmt.Sprintf("%d", res.Unassigned)})
	}
	tables = append(tables, ord)

	// SKATER quality comparison at FaCT's p (single SUM constraint so the
	// comparison is as fair as SKATER's constraint-free model allows).
	sumOnly := constraint.Set{defaultSum()}
	fr, err := fact.Solve(ds, sumOnly, fact.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	sk := Table{
		ID:     "ablation",
		Title:  "Baseline: SKATER tree partition at FaCT's p (SUM-only query)",
		Header: []string{"method", "k", "heterogeneity", "note"},
	}
	sk.Rows = append(sk.Rows, []string{"FaCT", fmt.Sprintf("%d", fr.P), fmt.Sprintf("%.4g", fr.HeteroAfter), "satisfies SUM >= 20k"})
	if fr.P >= ds.Components() && fr.P >= 1 {
		sres, err := skater.Solve(ds, fr.P)
		if err != nil {
			return nil, err
		}
		h := skaterHeterogeneity(ds, sres)
		sk.Rows = append(sk.Rows, []string{"SKATER", fmt.Sprintf("%d", sres.K), fmt.Sprintf("%.4g", h), "ignores constraints"})
		ares, err := azp.Solve(ds, fr.P, azp.Config{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		sk.Rows = append(sk.Rows, []string{"AZP-Tabu", fmt.Sprintf("%d", ares.K), fmt.Sprintf("%.4g", ares.Objective), "ignores constraints"})
	}
	tables = append(tables, sk)
	return tables, nil
}

// skaterHeterogeneity evaluates H(P) (the paper's pairwise measure) on a
// SKATER assignment for comparability with FaCT.
func skaterHeterogeneity(ds interface {
	DissimilarityColumn() ([]float64, error)
}, res *skater.Result) float64 {
	dis, err := ds.DissimilarityColumn()
	if err != nil {
		return 0
	}
	groups := make(map[int][]int)
	for a, c := range res.Assignment {
		groups[c] = append(groups[c], a)
	}
	var h float64
	for _, members := range groups {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				d := dis[members[i]] - dis[members[j]]
				if d < 0 {
					d = -d
				}
				h += d
			}
		}
	}
	return h
}
