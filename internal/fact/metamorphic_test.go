package fact

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/data"
)

// withColumn returns a copy of ds whose attribute column is f applied to
// ds's; every other column and the graph are shared.
func withColumn(t *testing.T, ds *data.Dataset, attr string, f func(float64) float64) *data.Dataset {
	t.Helper()
	i := slices.Index(ds.AttrNames, attr)
	if i < 0 {
		t.Fatalf("dataset %s has no column %s", ds.Name, attr)
	}
	out := *ds
	out.Cols = slices.Clone(ds.Cols)
	out.Cols[i] = make([]float64, len(ds.Cols[i]))
	for a, v := range ds.Cols[i] {
		out.Cols[i][a] = f(v)
	}
	return &out
}

// TestMetamorphicRelations solves 2k (one component) and 20k (three, so the
// component-sharded path runs) at seed 1 under three constraint families,
// and checks two transformations that must leave p, the assignment and the
// bits of H unchanged:
//   - adding 1000 to every HOUSEHOLDS value, the integer-valued
//     dissimilarity, changes no pairwise difference |d_i - d_j|;
//   - multiplying TOTALPOP by 4 together with its SUM bound scales both
//     sides of every SUM comparison by a power of two, which is exact.
func TestMetamorphicRelations(t *testing.T) {
	families := []struct{ name, format string }{
		{"sum", "SUM(TOTALPOP) >= %d"},
		{"min_avg_sum", "MIN(POP16UP) <= 3000; AVG(EMPLOYED) in [1500,3500]; SUM(TOTALPOP) >= %d"},
		{"count_sum", "COUNT(*) in [5,40]; SUM(TOTALPOP) >= %d"},
	}
	const floor = 20000
	for _, name := range []string{"2k", "20k"} {
		ds, err := census.NamedSeeded(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Dissimilarity != census.AttrHouseholds {
			t.Fatalf("%s: dissimilarity is %s, want %s", name, ds.Dissimilarity, census.AttrHouseholds)
		}
		for a, v := range ds.Column(census.AttrHouseholds) {
			if v != math.Trunc(v) || math.Abs(v) > 1<<40 {
				t.Fatalf("%s: HOUSEHOLDS of area %d is %g, not a small integer", name, a, v)
			}
		}
		shifted := withColumn(t, ds, census.AttrHouseholds, func(v float64) float64 { return v + 1000 })
		scaled := withColumn(t, ds, census.AttrTotalPop, func(v float64) float64 { return 4 * v })
		for _, fam := range families {
			t.Run(name+"/"+fam.name, func(t *testing.T) {
				solve := func(d *data.Dataset, sumFloor int) *Result {
					t.Helper()
					set, err := constraint.ParseSet(fmt.Sprintf(fam.format, sumFloor))
					if err != nil {
						t.Fatal(err)
					}
					res, err := Solve(d, set, Config{Seed: 1})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				base := solve(ds, floor)
				for _, v := range []struct {
					relation string
					res      *Result
				}{
					{"HOUSEHOLDS + 1000", solve(shifted, floor)},
					{"4 x TOTALPOP and its SUM bound", solve(scaled, 4*floor)},
				} {
					if v.res.P != base.P {
						t.Errorf("%s: p = %d, want %d", v.relation, v.res.P, base.P)
					}
					if got, want := math.Float64bits(v.res.HeteroAfter), math.Float64bits(base.HeteroAfter); got != want {
						t.Errorf("%s: H bits %016x, want %016x", v.relation, got, want)
					}
					if !slices.Equal(assignments(t, v.res), assignments(t, base)) {
						t.Errorf("%s: assignment changed", v.relation)
					}
				}
			})
		}
	}
}
