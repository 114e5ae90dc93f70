package maxp

import (
	"testing"

	"emp/internal/census"
	"emp/internal/data"
	"emp/internal/geom"
)

func uniformGrid(t *testing.T, cols, rows int, v float64) *data.Dataset {
	t.Helper()
	polys := geom.Lattice(geom.LatticeOptions{Cols: cols, Rows: rows})
	ds := data.FromPolygons("g", polys, geom.Rook)
	col := make([]float64, cols*rows)
	for i := range col {
		col[i] = v
	}
	if err := ds.AddColumn("POP", col); err != nil {
		t.Fatal(err)
	}
	ds.Dissimilarity = "POP"
	return ds
}

func TestSolveUniformGrid(t *testing.T) {
	ds := uniformGrid(t, 6, 6, 10)
	res, err := Solve(ds, "POP", 40, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
	if !res.Partition.AllSatisfied() {
		t.Error("regions violate the SUM threshold")
	}
	// Optimal is 9 regions of 4; greedy should be close and all areas
	// assigned (single component, threshold reachable).
	if res.P < 6 || res.P > 9 {
		t.Errorf("p = %d, want in [6,9]", res.P)
	}
	if res.Unassigned != 0 {
		t.Errorf("unassigned = %d, want 0 (classic max-p assigns all areas)", res.Unassigned)
	}
	if res.HeteroAfter > res.HeteroBefore {
		t.Error("tabu worsened heterogeneity")
	}
}

func TestSolveThresholdAboveTotal(t *testing.T) {
	ds := uniformGrid(t, 3, 3, 1)
	res, err := Solve(ds, "POP", 100, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 0 {
		t.Errorf("p = %d, want 0 when the threshold exceeds the total", res.P)
	}
	if res.Unassigned != 9 {
		t.Errorf("unassigned = %d, want 9", res.Unassigned)
	}
}

func TestSolveHigherThresholdFewerRegions(t *testing.T) {
	ds, err := census.Scaled("1k", 0.15, 3)
	if err != nil {
		t.Fatal(err)
	}
	var prev int
	for i, th := range []float64{5000, 20000, 60000} {
		res, err := Solve(ds, census.AttrTotalPop, th, Config{Seed: 2, SkipLocalSearch: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Partition.Validate(); err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.P > prev {
			t.Errorf("threshold %g gave p=%d > previous %d", th, res.P, prev)
		}
		prev = res.P
	}
}

func TestSolveErrors(t *testing.T) {
	if _, err := Solve(&data.Dataset{Name: "e"}, "POP", 1, Config{}); err == nil {
		t.Error("empty dataset accepted")
	}
	ds := uniformGrid(t, 2, 2, 1)
	if _, err := Solve(ds, "GHOST", 1, Config{}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestSolveIterationsKeepBest(t *testing.T) {
	ds, err := census.Scaled("1k", 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Solve(ds, census.AttrTotalPop, 30000, Config{Iterations: 1, Seed: 7, SkipLocalSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Solve(ds, census.AttrTotalPop, 30000, Config{Iterations: 4, Seed: 7, SkipLocalSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	if r4.P < r1.P {
		t.Errorf("4 iters p=%d < 1 iter p=%d", r4.P, r1.P)
	}
}

func TestHeteroImprovement(t *testing.T) {
	r := &Result{HeteroBefore: 100, HeteroAfter: 80}
	if r.HeteroImprovement() != 0.2 {
		t.Error("improvement wrong")
	}
	z := &Result{}
	if z.HeteroImprovement() != 0 {
		t.Error("zero-before improvement should be 0")
	}
}
