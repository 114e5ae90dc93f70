package experiments

import (
	"fmt"

	"emp/internal/azp"
	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/fact"
	"emp/internal/geom"
	"emp/internal/solvecache"
	"emp/internal/tabu"
)

// Ablations runs the design-choice studies DESIGN.md calls out, beyond the
// paper's own artifacts: merge limit, construction iterations and
// worker count, local-search objective, tabu tenure and no-improvement
// budget, area pickup order, rook against queen contiguity, and a quality
// comparison against the AZP-Tabu fixed-k baseline at the same k.
//
// cfg.Iterations applies to every FaCT solve except the rows of the
// iterations table, which set their own. Under cfg.SkipTabu the
// local-search objective and tabu tenure tables are left out and every
// other FaCT solve is construction-only.
func Ablations(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	ds, err := dataset(cfg, "2k")
	if err != nil {
		return nil, err
	}
	defaults := constraint.Set{defaultMin(), defaultAvg(), defaultSum()}
	hardAvg := constraint.Set{avgRange(2000, 4000)}
	// solve is the configuration every FaCT solve starts from, construct
	// its construction-only form.
	solve := fact.Config{Seed: cfg.Seed, Iterations: cfg.Iterations, SkipLocalSearch: cfg.SkipTabu}
	construct := solve
	construct.SkipLocalSearch = true
	var tables []Table

	// Merge limit on the hard AVG range (drives round-2 merges).
	ml := Table{
		ID:     "ablation",
		Title:  "Ablation: AVG merge limit (range 3k±1k)",
		Header: []string{"merge_limit", "p", "unassigned", "construction"},
	}
	for _, limit := range []int{1, 3, 6, 12} {
		c := construct
		c.MergeLimit = limit
		res, err := fact.Solve(ds, hardAvg, c)
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

	if !cfg.SkipTabu {
		ls, err := localSearchAblations(ds, defaults, solve)
		if err != nil {
			return nil, err
		}
		tables = append(tables, ls...)
	}

	// Area pickup order.
	ord := Table{
		ID:     "ablation",
		Title:  "Ablation: area pickup order",
		Header: []string{"order", "p", "unassigned"},
	}
	for _, o := range []fact.Order{fact.OrderRandom, fact.OrderAscending, fact.OrderDescending} {
		c := construct
		c.Order = o
		res, err := fact.Solve(ds, defaults, c)
		if err != nil {
			return nil, err
		}
		ord.Rows = append(ord.Rows, []string{o.String(), fmt.Sprintf("%d", res.P), fmt.Sprintf("%d", res.Unassigned)})
	}
	tables = append(tables, ord)

	// Rook against queen contiguity, construction only. The queen dataset
	// shares the rook dataset's polygons and attribute columns.
	queen := data.FromPolygons(ds.Name+"-queen", ds.Polygons, geom.Queen)
	queen.AttrNames, queen.Cols = ds.AttrNames, ds.Cols
	queen.Dissimilarity, queen.DissimilarityAttrs = ds.Dissimilarity, ds.DissimilarityAttrs
	ct := Table{
		ID:     "ablation",
		Title:  "Ablation: rook against queen contiguity (construction only)",
		Header: []string{"contiguity", "p", "unassigned"},
	}
	for _, v := range []struct {
		name string
		ds   *data.Dataset
	}{{"rook", ds}, {"queen", queen}} {
		res, err := fact.Solve(v.ds, defaults, construct)
		if err != nil {
			return nil, err
		}
		ct.Rows = append(ct.Rows, []string{v.name, fmt.Sprintf("%d", res.P), fmt.Sprintf("%d", res.Unassigned)})
	}
	tables = append(tables, ct)

	// AZP-Tabu quality comparison at FaCT's p (single SUM constraint so the
	// comparison is as fair as AZP's constraint-free model allows).
	sumOnly := constraint.Set{defaultSum()}
	fr, err := fact.Solve(ds, sumOnly, solve)
	if err != nil {
		return nil, err
	}
	fk := Table{
		ID:     "ablation",
		Title:  "Fixed-k baseline: AZP-Tabu at FaCT's p (SUM-only query)",
		Header: []string{"method", "k", "heterogeneity", "note"},
	}
	fk.Rows = append(fk.Rows, []string{"FaCT", fmt.Sprintf("%d", fr.P), fmt.Sprintf("%.4g", fr.HeteroAfter), "satisfies SUM >= 20k"})
	if fr.P >= ds.Components() && fr.P >= 1 {
		ares, err := azp.Solve(ds, fr.P, azp.Config{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		fk.Rows = append(fk.Rows, []string{"AZP-Tabu", fmt.Sprintf("%d", ares.K), fmt.Sprintf("%.4g", ares.Objective), "ignores constraints"})
	}
	tables = append(tables, fk)
	return tables, nil
}

// localSearchAblations runs the two local-search studies from the solve
// configuration: the local-search objective, and the tabu tenure with its
// no-improvement budget.
func localSearchAblations(ds *data.Dataset, defaults constraint.Set, solve fact.Config) ([]Table, error) {
	ls := Table{
		ID:     "ablation",
		Title:  "Ablation: local-search objective",
		Header: []string{"objective", "hetero_improve", "moves", "time"},
	}
	compact := solve
	compact.Objective = tabu.NewCompactness(ds.Polygons)
	for _, v := range []struct {
		objName string
		cfg     fact.Config
	}{{"heterogeneity", solve}, {"compactness", compact}} {
		res, err := fact.Solve(ds, defaults, v.cfg)
		if err != nil {
			return nil, err
		}
		ls.Rows = append(ls.Rows, []string{
			v.objName,
			fmt.Sprintf("%.1f%%", res.HeteroImprovement()*100),
			fmt.Sprintf("%d", res.TabuMoves),
			secs(res.LocalSearchTime.Seconds()),
		})
	}

	tb := Table{
		ID:     "ablation",
		Title:  "Ablation: tabu tenure and no-improvement budget",
		Header: []string{"tenure", "max_no_improve", "hetero_improve", "moves", "time"},
	}
	n := ds.N()
	for _, row := range []struct {
		tenure, budget int
		label          string
	}{{5, n / 4, "n/4"}, {10, n, "n"}, {20, 2 * n, "2n"}} {
		c := solve
		c.TabuLength, c.MaxNoImprove = row.tenure, row.budget
		res, err := fact.Solve(ds, defaults, c)
		if err != nil {
			return nil, err
		}
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%d", row.tenure), fmt.Sprintf("%s=%d", row.label, row.budget),
			fmt.Sprintf("%.1f%%", res.HeteroImprovement()*100),
			fmt.Sprintf("%d", res.TabuMoves),
			secs(res.LocalSearchTime.Seconds()),
		})
	}
	return []Table{ls, tb}, nil
}
