package emp

// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact, backed by internal/experiments), plus
// ablation benches for the design choices DESIGN.md calls out.
//
// Dataset sizes are scaled down (BenchScale) so `go test -bench=.` finishes
// in minutes on one core; the shapes of the results — who wins, how p moves
// with thresholds, where the AVG hard case bites — match the full-size runs
// (see EXPERIMENTS.md). Use cmd/empbench -scale 1 for full-size numbers.

import (
	"strconv"
	"testing"

	"emp/internal/census"
	"emp/internal/data"
	"emp/internal/experiments"
	"emp/internal/fact"
	"emp/internal/geom"
	"emp/internal/solvecache"
	"emp/internal/tabu"
)

// BenchScale is the dataset scale used by the experiment benchmarks.
const BenchScale = 0.08

func benchCfg() experiments.Config {
	return experiments.Config{Scale: BenchScale, Seed: 1}
}

// runExperiment drives one registered experiment runner per iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	runner := experiments.Registry[id]
	if runner == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := runner(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkTable1Datasets(b *testing.B)  { runExperiment(b, "table1") }
func BenchmarkTable3MinCombos(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkTable4SumCombos(b *testing.B) { runExperiment(b, "table4") }

func BenchmarkFig5MinUpperBound(b *testing.B) { runExperiment(b, "fig5") }
func BenchmarkFig6MinLowerBound(b *testing.B) { runExperiment(b, "fig6") }
func BenchmarkFig7MinBounded(b *testing.B)    { runExperiment(b, "fig7") }
func BenchmarkFig8Histogram(b *testing.B)     { runExperiment(b, "fig8") }
func BenchmarkFig9AvgMidpoints(b *testing.B)  { runExperiment(b, "fig9") }
func BenchmarkFig10AvgLengths(b *testing.B)   { runExperiment(b, "fig10") }
func BenchmarkFig11AvgRuntime(b *testing.B)   { runExperiment(b, "fig11") }
func BenchmarkFig12SumVsMaxP(b *testing.B)    { runExperiment(b, "fig12") }
func BenchmarkFig13SumBounded(b *testing.B)   { runExperiment(b, "fig13") }
func BenchmarkFig14ScaleSmall(b *testing.B)   { runExperiment(b, "fig14") }
func BenchmarkFig15ScaleLarge(b *testing.B)   { runExperiment(b, "fig15") }
func BenchmarkFig16AvgHardScale(b *testing.B) { runExperiment(b, "fig16") }
func BenchmarkExactBlowup(b *testing.B)       { runExperiment(b, "mip") }

// --- Ablation benches -------------------------------------------------

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

// BenchmarkAblationLocalSearch compares the two phase-3 algorithms.
func BenchmarkAblationLocalSearch(b *testing.B) {
	ds := benchDataset(b)
	for _, v := range []struct {
		name string
		ls   fact.LocalSearch
	}{{"tabu", fact.LocalSearchTabu}, {"anneal", fact.LocalSearchAnneal}} {
		b.Run(v.name, func(b *testing.B) {
			var improve float64
			for i := 0; i < b.N; i++ {
				res, err := fact.Solve(ds, defaultBenchSet(), fact.Config{Seed: 1, LocalSearch: v.ls})
				if err != nil {
					b.Fatal(err)
				}
				improve = res.HeteroImprovement() * 100
			}
			b.ReportMetric(improve, "improve%")
		})
	}
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
