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

// metamorphicFamilies are the constraint families the metamorphic tests
// solve under, each with its SUM floor left as a %d verb.
var metamorphicFamilies = []struct{ name, format string }{
	{"sum", "SUM(TOTALPOP) >= %d"},
	{"min_avg_sum", "MIN(POP16UP) <= 3000; AVG(EMPLOYED) in [1500,3500]; SUM(TOTALPOP) >= %d"},
	{"count_sum", "COUNT(*) in [5,40]; SUM(TOTALPOP) >= %d"},
}

// metamorphicFloor is the SUM(TOTALPOP) lower bound of every metamorphic solve.
const metamorphicFloor = 20000

// TestMetamorphicRelations solves 2k (one component) and 20k (three, so the
// component-sharded path runs) at seed 1 under three constraint families,
// and checks two transformations that must leave p, the assignment and the
// bits of H unchanged:
//   - adding 1000 to every HOUSEHOLDS value, the integer-valued
//     dissimilarity, changes no pairwise difference |d_i - d_j|;
//   - multiplying TOTALPOP by 4 together with its SUM bound scales both
//     sides of every SUM comparison by a power of two, which is exact.
func TestMetamorphicRelations(t *testing.T) {
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
		for _, fam := range metamorphicFamilies {
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
				base := solve(ds, metamorphicFloor)
				for _, v := range []struct {
					relation string
					res      *Result
				}{
					{"HOUSEHOLDS + 1000", solve(shifted, metamorphicFloor)},
					{"4 x TOTALPOP and its SUM bound", solve(scaled, 4*metamorphicFloor)},
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

// withCopy returns ds plus a disjoint relabelled copy of it: area a+n
// repeats area a, its neighbors shifted by n and its attribute values
// unchanged.
func withCopy(t *testing.T, ds *data.Dataset) *data.Dataset {
	t.Helper()
	n := ds.N()
	lists := make([][]int, 2*n)
	for u := 0; u < n; u++ {
		for _, v := range ds.Graph().Neighbors(u) {
			lists[u] = append(lists[u], int(v))
			lists[u+n] = append(lists[u+n], int(v)+n)
		}
	}
	out, err := data.New(ds.Name+"+copy", lists)
	if err != nil {
		t.Fatal(err)
	}
	out.AttrNames = ds.AttrNames
	out.Dissimilarity = ds.Dissimilarity
	out.DissimilarityAttrs = ds.DissimilarityAttrs
	for _, col := range ds.Cols {
		out.Cols = append(out.Cols, append(slices.Clone(col), col...))
	}
	return out
}

// regionsOf renders the regions of assign restricted to areas [lo, lo+n),
// each as its ids minus lo in ascending order, plus the unassigned areas,
// in one canonical string.
func regionsOf(assign []int, lo, n int) string {
	members := make(map[int][]int)
	for a := lo; a < lo+n; a++ {
		members[assign[a]] = append(members[assign[a]], a-lo)
	}
	var out []string
	for label, m := range members {
		s := fmt.Sprint(m)
		if label < 0 {
			s = "unassigned " + s
		}
		out = append(out, s)
	}
	slices.Sort(out)
	return fmt.Sprint(out)
}

// TestDisjointCopyDoublesP: 2k (one component) plus a relabelled copy is
// two components, so component sharding solves each on its own. Under
// OrderAscending construction draws no random numbers, so both shards solve
// exactly like 2k alone: p doubles, the original's regions stay as they
// were and the copy's are the same regions shifted by n. OrderRandom is
// excluded because shard i draws from shardSeed(seed, i), so the two copies
// take different random orders (under the SUM family at seed 1, p went from
// 416 to 834, not 832).
func TestDisjointCopyDoublesP(t *testing.T) {
	ds, err := census.NamedSeeded("2k", 1)
	if err != nil {
		t.Fatal(err)
	}
	doubled := withCopy(t, ds)
	if doubled.Components() != 2*ds.Components() {
		t.Fatalf("copy has %d components, want %d", doubled.Components(), 2*ds.Components())
	}
	n := ds.N()
	for _, fam := range metamorphicFamilies {
		t.Run(fam.name, func(t *testing.T) {
			set, err := constraint.ParseSet(fmt.Sprintf(fam.format, metamorphicFloor))
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Seed: 1, Order: OrderAscending}
			base, err := Solve(ds, set, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Solve(doubled, set, cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("p %d -> %d", base.P, res.P)
			if res.P != 2*base.P {
				t.Errorf("p = %d with the copy, want 2 x %d", res.P, base.P)
			}
			want := regionsOf(assignments(t, base), 0, n)
			got := assignments(t, res)
			if regionsOf(got, 0, n) != want {
				t.Error("the original's regions changed when the copy was added")
			}
			if regionsOf(got, n, n) != want {
				t.Error("the copy's regions are not the original's shifted by n")
			}
		})
	}
}
