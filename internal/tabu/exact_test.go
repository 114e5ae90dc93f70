package tabu

import (
	"math"
	"math/rand"
	"testing"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/geom"
	"emp/internal/region"
)

// grownPartition carves the dataset into k BFS-grown regions under a COUNT
// floor of one, which every region meets.
func grownPartition(t *testing.T, ds *data.Dataset, k int) *region.Partition {
	t.Helper()
	ev, err := constraint.NewEvaluator(constraint.Set{constraint.AtLeast(constraint.Count, "", 1)}, ds.Column)
	if err != nil {
		t.Fatal(err)
	}
	p, err := region.NewPartition(ds, ev)
	if err != nil {
		t.Fatal(err)
	}
	growRegions(p, k)
	return p
}

// TestRunningTotalIsExact: on integer dissimilarities the running objective
// equals a fresh H(P) bit for bit after every executed move, which is why
// Improve skips the re-sum there. Census 2k (HOUSEHOLDS counts) and a
// lattice of random integers, each searched to the solver's stopping rule.
func TestRunningTotalIsExact(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) *region.Partition
	}{
		{"census 2k", func(t *testing.T) *region.Partition {
			ds, err := census.NamedSeeded("2k", 1)
			if err != nil {
				t.Fatal(err)
			}
			return grownPartition(t, ds, 40)
		}},
		{"random lattice", func(t *testing.T) *region.Partition {
			const side = 24
			ds := data.FromPolygons("lattice", geom.Lattice(geom.LatticeOptions{Cols: side, Rows: side}), geom.Rook)
			rng := rand.New(rand.NewSource(5))
			dis := make([]float64, side*side)
			for i := range dis {
				dis[i] = float64(rng.Intn(20001) - 10000)
			}
			if err := ds.AddColumn("D", dis); err != nil {
				t.Fatal(err)
			}
			ds.Dissimilarity = "D"
			return grownPartition(t, ds, 12)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build(t)
			if !p.HeteroExact() {
				t.Fatal("integer dissimilarities judged inexact")
			}
			moves := 0
			afterMove = func(s *searcher, _ bool) {
				moves++
				if got, want := s.cur, s.p.Heterogeneity(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("after move %d the running total is %v, H(P) %v", moves, got, want)
				}
			}
			defer func() { afterMove = nil }()
			st := Improve(p, Config{Tenure: 10, MaxNoImprove: p.Dataset().N()})
			if st.Improvements < 10 {
				t.Fatalf("%d improvements in %d moves; the check needs a real search", st.Improvements, moves)
			}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d executed moves checked, %d improvements", moves, st.Improvements)
		})
	}
}

// TestRunningTotalResyncedOnFractionalData: on fractional dissimilarities
// the running total is re-summed on every improvement, so right after one
// it equals H(P) bit for bit; deltas applied in another order would drift
// from it in the last bits.
func TestRunningTotalResyncedOnFractionalData(t *testing.T) {
	const side = 24
	ds := data.FromPolygons("lattice", geom.Lattice(geom.LatticeOptions{Cols: side, Rows: side}), geom.Rook)
	rng := rand.New(rand.NewSource(5))
	dis := make([]float64, side*side)
	for i := range dis {
		dis[i] = rng.Float64() * 1000
	}
	if err := ds.AddColumn("D", dis); err != nil {
		t.Fatal(err)
	}
	ds.Dissimilarity = "D"
	p := grownPartition(t, ds, 12)
	if p.HeteroExact() {
		t.Fatal("fractional dissimilarities judged exact")
	}
	improvements := 0
	afterMove = func(s *searcher, improved bool) {
		if !improved {
			return
		}
		improvements++
		if got, want := s.cur, s.p.Heterogeneity(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("after improvement %d the running total is %v, H(P) %v", improvements, got, want)
		}
	}
	defer func() { afterMove = nil }()
	Improve(p, Config{Tenure: 10, MaxNoImprove: p.Dataset().N()})
	if improvements < 10 {
		t.Fatalf("%d improvements; the check needs a real search", improvements)
	}
}
