package tabu_test

import (
	"sync"
	"testing"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/fact"
	"emp/internal/region"
	"emp/internal/tabu"
)

// paper50k1 lazily builds the construction incumbent of the paper-scale
// warm-up solve: dataset 50k1 at seed 1, SUM(TOTALPOP) >= 100000, solver
// seed 1, construction only. Built once per test binary; the benchmark
// clones it per iteration. It lives in an external test package because
// fact imports tabu.
var paper50k1 struct {
	once sync.Once
	p    *region.Partition
	err  error
}

func paperIncumbent(b testing.TB) *region.Partition {
	b.Helper()
	paper50k1.once.Do(func() {
		ds, err := census.NamedSeeded("50k1", 1)
		if err != nil {
			paper50k1.err = err
			return
		}
		set := constraint.Set{constraint.AtLeast(constraint.Sum, census.AttrTotalPop, 100000)}
		res, err := fact.Solve(ds, set, fact.Config{Seed: 1, SkipLocalSearch: true})
		if err != nil {
			paper50k1.err = err
			return
		}
		paper50k1.p = res.Partition
	})
	if paper50k1.err != nil {
		b.Fatal(paper50k1.err)
	}
	return paper50k1.p
}

// BenchmarkImprovePaperScale is the search of the paper-scale warm-up solve
// on its own: tenure 10 and MaxNoImprove n (the solver's defaults) from the
// 50k1 seed-1 construction incumbent, the same 64,961 moves the whole-graph
// solve makes. replayed-moves/op is the part of moves/op the cycle
// fast-forward accounted for without executing.
func BenchmarkImprovePaperScale(b *testing.B) {
	base := paperIncumbent(b)
	cfg := tabu.Config{Tenure: 10, MaxNoImprove: base.Dataset().N()}
	var moves, replayed int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := base.Clone()
		b.StartTimer()
		st := tabu.Improve(p, cfg)
		moves += st.Moves
		replayed += st.ReplayedMoves
	}
	b.ReportMetric(float64(moves)/float64(b.N), "moves/op")
	b.ReportMetric(float64(replayed)/float64(b.N), "replayed-moves/op")
}
