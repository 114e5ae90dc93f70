package emp

// Solver phase and GIS IO timings on a scaled-down census dataset, so
// `go test -bench=.` finishes quickly. The paper's tables and figures, and
// the ablations of the design choices DESIGN.md calls out, are regenerated
// by cmd/empbench (internal/experiments), whose runners
// internal/experiments.TestAllRunnersSmoke exercises.

import (
	"testing"

	"emp/internal/census"
	"emp/internal/fact"
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
