package emp

// Ablation benches for the design choices DESIGN.md calls out, plus solver
// phase, worker and GIS IO timings, on scaled-down census datasets so
// `go test -bench=.` finishes quickly. The paper's tables and figures are
// regenerated by cmd/empbench (internal/experiments), whose runners
// internal/experiments.TestAllRunnersSmoke exercises.

import (
	"strconv"
	"testing"

	"emp/internal/census"
	"emp/internal/data"
	"emp/internal/fact"
	"emp/internal/geom"
	"emp/internal/solvecache"
	"emp/internal/tabu"
)

// benchDataset returns the default 2k dataset at bench scale.
func benchDataset(b *testing.B) *Dataset {
	b.Helper()
	ds, err := census.Scaled("2k", 0.15, 1)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func defaultBenchSet() ConstraintSet {
	return ConstraintSet{
		AtMost(Min, census.AttrPop16Up, 3000),
		NewConstraint(Avg, census.AttrEmployed, 1500, 3500),
		AtLeast(Sum, census.AttrTotalPop, 20000),
	}
}

// BenchmarkAblationMergeLimit varies the Substep 2.2 merge limit on the
// hard AVG range 3k±1k, where round-2 merges decide how many areas can be
// absorbed (the default constraints rarely trigger merges).
func BenchmarkAblationMergeLimit(b *testing.B) {
	ds := benchDataset(b)
	hardSet := ConstraintSet{NewConstraint(Avg, census.AttrEmployed, 2000, 4000)}
	for _, limit := range []int{1, 3, 6, 12} {
		b.Run(benchName("limit", limit), func(b *testing.B) {
			var lastUA int
			for i := 0; i < b.N; i++ {
				res, err := fact.Solve(ds, hardSet, fact.Config{MergeLimit: limit, Seed: 1, SkipLocalSearch: true})
				if err != nil {
					b.Fatal(err)
				}
				lastUA = res.Unassigned
			}
			b.ReportMetric(float64(lastUA), "unassigned")
		})
	}
}

// BenchmarkAblationIterations varies the construction-iteration count.
func BenchmarkAblationIterations(b *testing.B) {
	ds := benchDataset(b)
	for _, iters := range []int{1, 3, 5} {
		b.Run(benchName("iters", iters), func(b *testing.B) {
			var lastP int
			for i := 0; i < b.N; i++ {
				res, err := fact.Solve(ds, defaultBenchSet(), fact.Config{Iterations: iters, Seed: 1, SkipLocalSearch: true})
				if err != nil {
					b.Fatal(err)
				}
				lastP = res.P
			}
			b.ReportMetric(float64(lastP), "p")
		})
	}
}

// BenchmarkAblationTabu varies the tabu tenure and no-improvement budget.
func BenchmarkAblationTabu(b *testing.B) {
	ds := benchDataset(b)
	for _, cfg := range []struct {
		name           string
		tenure, budget int
	}{
		{"tenure5_budget_nOver4", 5, ds.N() / 4},
		{"tenure10_budget_n", 10, ds.N()},
		{"tenure20_budget_2n", 20, 2 * ds.N()},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var improve float64
			for i := 0; i < b.N; i++ {
				res, err := fact.Solve(ds, defaultBenchSet(), fact.Config{
					TabuLength: cfg.tenure, MaxNoImprove: cfg.budget, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				improve = res.HeteroImprovement() * 100
			}
			b.ReportMetric(improve, "improve%")
		})
	}
}

// BenchmarkAblationContiguity compares rook vs queen adjacency.
func BenchmarkAblationContiguity(b *testing.B) {
	ds := benchDataset(b)
	queen := data.FromPolygons(ds.Name+"-queen", ds.Polygons, geom.Queen)
	queen.AttrNames, queen.Cols = ds.AttrNames, ds.Cols
	queen.Dissimilarity, queen.DissimilarityAttrs = ds.Dissimilarity, ds.DissimilarityAttrs
	for _, v := range []struct {
		name string
		ds   *Dataset
	}{{"rook", ds}, {"queen", queen}} {
		b.Run(v.name, func(b *testing.B) {
			var lastP int
			for i := 0; i < b.N; i++ {
				res, err := fact.Solve(v.ds, defaultBenchSet(), fact.Config{Seed: 1, SkipLocalSearch: true})
				if err != nil {
					b.Fatal(err)
				}
				lastP = res.P
			}
			b.ReportMetric(float64(lastP), "p")
		})
	}
}

// BenchmarkAblationSeedOrder compares area pickup criteria.
func BenchmarkAblationSeedOrder(b *testing.B) {
	ds := benchDataset(b)
	for _, v := range []struct {
		name  string
		order fact.Order
	}{{"random", fact.OrderRandom}, {"ascending", fact.OrderAscending}, {"descending", fact.OrderDescending}} {
		b.Run(v.name, func(b *testing.B) {
			var lastP int
			for i := 0; i < b.N; i++ {
				res, err := fact.Solve(ds, defaultBenchSet(), fact.Config{Order: v.order, Seed: 1, SkipLocalSearch: true})
				if err != nil {
					b.Fatal(err)
				}
				lastP = res.P
			}
			b.ReportMetric(float64(lastP), "p")
		})
	}
}

// BenchmarkSolverPhases isolates the two FaCT phases on the default query.
func BenchmarkSolverPhases(b *testing.B) {
	ds := benchDataset(b)
	b.Run("construction", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fact.Solve(ds, defaultBenchSet(), fact.Config{Seed: 1, SkipLocalSearch: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fact.Solve(ds, defaultBenchSet(), fact.Config{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTabuOnly measures the local-search phase on a prebuilt partition.
func BenchmarkTabuOnly(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		res, err := fact.Solve(ds, defaultBenchSet(), fact.Config{Seed: 1, SkipLocalSearch: true})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		tabu.Improve(res.Partition, tabu.Config{Tenure: 10, MaxNoImprove: ds.N()})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}

// BenchmarkShapefileRoundTrip measures GIS IO on a census-sized dataset.
func BenchmarkShapefileRoundTrip(b *testing.B) {
	ds := benchDataset(b)
	dir := b.TempDir()
	base := dir + "/tracts"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := SaveShapefile(ds, base); err != nil {
			b.Fatal(err)
		}
		if _, err := LoadShapefile(base, ShapefileOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSKATER measures the tree-partition baseline.
func BenchmarkSKATER(b *testing.B) {
	ds := benchDataset(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveSKATER(ds, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelConstruction measures multi-iteration construction with
// and without worker parallelism (on one core the speedup is nil; the bench
// documents the overhead).
func BenchmarkParallelConstruction(b *testing.B) {
	ds := benchDataset(b)
	for _, v := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"workers4", 4}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := fact.Solve(ds, defaultBenchSet(), fact.Config{
					Iterations: 4, Pool: solvecache.NewPool(v.workers), Seed: 1, SkipLocalSearch: true,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
