package skater

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/fact"
	"emp/internal/geom"
)

func pathDS(t *testing.T, vals []float64) *data.Dataset {
	t.Helper()
	polys := geom.Lattice(geom.LatticeOptions{Cols: len(vals), Rows: 1})
	ds := data.FromPolygons("p", polys, geom.Rook)
	if err := ds.AddColumn("D", vals); err != nil {
		t.Fatal(err)
	}
	ds.Dissimilarity = "D"
	return ds
}

func TestSolveObviousSplit(t *testing.T) {
	// Two flat halves with a big jump: the k=2 cut must land on the jump.
	ds := pathDS(t, []float64{1, 1, 1, 100, 100, 100})
	res, err := Solve(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Fatalf("K = %d", res.K)
	}
	if res.SSD != 0 {
		t.Errorf("SSD = %g, want 0 for a perfect split", res.SSD)
	}
	want := []int{0, 0, 0, 1, 1, 1}
	for i, c := range res.Assignment {
		if c != want[i] {
			t.Errorf("assignment = %v, want %v", res.Assignment, want)
			break
		}
	}
}

func TestSolveKEqualsOneAndN(t *testing.T) {
	ds := pathDS(t, []float64{3, 1, 4, 1, 5})
	one, err := Solve(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.K != 1 {
		t.Errorf("K = %d", one.K)
	}
	all, err := Solve(ds, 5)
	if err != nil {
		t.Fatal(err)
	}
	if all.K != 5 || all.SSD != 0 {
		t.Errorf("K = %d SSD = %g, want 5 regions of one area", all.K, all.SSD)
	}
}

func TestSolveErrors(t *testing.T) {
	ds := pathDS(t, []float64{1, 2})
	if _, err := Solve(ds, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Solve(ds, 3); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := Solve(&data.Dataset{Name: "e"}, 1); err == nil {
		t.Error("empty dataset accepted")
	}
	noDis := pathDS(t, []float64{1, 2})
	noDis.Dissimilarity = ""
	if _, err := Solve(noDis, 1); err == nil {
		t.Error("missing dissimilarity accepted")
	}
	// k below component count.
	two, err := data.New("two", [][]int{{1}, {0}, {3}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := two.AddColumn("D", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	two.Dissimilarity = "D"
	if _, err := Solve(two, 1); err == nil {
		t.Error("k below component count accepted")
	}
	if res, err := Solve(two, 2); err != nil || res.K != 2 {
		t.Errorf("k = components should work: %v %v", res, err)
	}
}

// Property: SKATER regions are contiguous and SSD decreases monotonically
// with k.
func TestSolveProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols, rows := 4+rng.Intn(3), 3+rng.Intn(3)
		polys := geom.Lattice(geom.LatticeOptions{Cols: cols, Rows: rows})
		ds := data.FromPolygons("q", polys, geom.Rook)
		n := cols * rows
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(50))
		}
		if ds.AddColumn("D", vals) != nil {
			return false
		}
		ds.Dissimilarity = "D"
		g := ds.Graph()
		prev := math.Inf(1)
		for k := 1; k <= 4; k++ {
			res, err := Solve(ds, k)
			if err != nil {
				return false
			}
			if res.K != k {
				return false
			}
			// Contiguity per region.
			groups := make([][]int, k)
			for a, c := range res.Assignment {
				groups[c] = append(groups[c], a)
			}
			for _, members := range groups {
				if len(members) == 0 || !g.ConnectedSubset(members) {
					return false
				}
			}
			if res.SSD > prev+1e-9 {
				return false
			}
			prev = res.SSD
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestSkaterVsFactHeterogeneity compares SKATER's unconstrained SSD-optimal
// partition against FaCT's constrained one at the same k: SKATER ignores
// constraints, so its regions need not satisfy them, but both must be valid
// contiguous partitions.
func TestSkaterVsFactHeterogeneity(t *testing.T) {
	ds, err := census.Scaled("1k", 0.08, 4)
	if err != nil {
		t.Fatal(err)
	}
	set := constraint.Set{constraint.AtLeast(constraint.Sum, census.AttrTotalPop, 30000)}
	fr, err := fact.Solve(ds, set, fact.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fr.P < 2 {
		t.Skip("too few regions for a comparison")
	}
	sres, err := Solve(ds, fr.P)
	if err != nil {
		t.Fatal(err)
	}
	if sres.K != fr.P {
		t.Errorf("SKATER K = %d, want %d", sres.K, fr.P)
	}
	g := ds.Graph()
	groups := make([][]int, sres.K)
	for a, c := range sres.Assignment {
		groups[c] = append(groups[c], a)
	}
	for i, members := range groups {
		if !g.ConnectedSubset(members) {
			t.Errorf("SKATER region %d not contiguous", i)
		}
	}
}
