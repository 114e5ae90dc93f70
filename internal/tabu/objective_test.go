package tabu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/geom"
	"emp/internal/region"
)

// randomBiPartition builds a grid dataset with random dissimilarity and a
// contiguous two-region split.
func randomBiPartition(t testing.TB, seed int64, cols, rows int) (*region.Partition, []geom.Polygon) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	polys := geom.Lattice(geom.LatticeOptions{Cols: cols, Rows: rows, Jitter: 0.2, Rng: rng})
	ds := data.FromPolygons("obj", polys, geom.Rook)
	n := cols * rows
	dis := make([]float64, n)
	for i := range dis {
		dis[i] = float64(rng.Intn(100))
	}
	if err := ds.AddColumn("D", dis); err != nil {
		t.Fatal(err)
	}
	ds.Dissimilarity = "D"
	ev, err := constraint.NewEvaluator(constraint.Set{}, ds.Column)
	if err != nil {
		t.Fatal(err)
	}
	p, err := region.NewPartition(ds, ev)
	if err != nil {
		t.Fatal(err)
	}
	var left, right []int
	for i := 0; i < n; i++ {
		if i%cols < cols/2 {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	p.NewRegion(left...)
	p.NewRegion(right...)
	return p, polys
}

func TestHeterogeneityObjectiveMatchesPartition(t *testing.T) {
	p, _ := randomBiPartition(t, 1, 6, 4)
	var obj Heterogeneity
	if obj.Total(p) != p.Heterogeneity() {
		t.Error("Total != partition heterogeneity")
	}
	ids := p.RegionIDs()
	a := p.BorderAreasBetween(ids[0], ids[1])[0]
	if obj.DeltaMove(p, a, ids[1]) != p.HeteroDeltaMove(a, ids[1]) {
		t.Error("DeltaMove != partition delta")
	}
}

// Property: Compactness.DeltaMove equals the actual Total change.
func TestCompactnessDeltaMatchesTotal(t *testing.T) {
	f := func(seed int64) bool {
		p, polys := randomBiPartition(t, seed, 6, 5)
		obj := NewCompactness(polys)
		ids := p.RegionIDs()
		for _, dir := range [][2]int{{0, 1}, {1, 0}} {
			from, to := ids[dir[0]], ids[dir[1]]
			border := p.BorderAreasBetween(from, to)
			if len(border) == 0 {
				continue
			}
			a := border[0]
			if !p.CanRemove(a) || p.Region(from).Size() <= 1 {
				continue
			}
			before := obj.Total(p)
			delta := obj.DeltaMove(p, a, to)
			p.MoveArea(a, to)
			after := obj.Total(p)
			p.MoveArea(a, from) // restore
			if math.Abs((after-before)-delta) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCompactnessPrefersSquareRegions(t *testing.T) {
	// Two vertical stripes on a wide flat grid are less compact than two
	// halves split across the middle... actually for an 8x2 grid, stripes
	// of 4x2 are optimal. Verify the objective improves (or holds) under
	// tabu and ends at the best state.
	p, polys := randomBiPartition(t, 3, 8, 2)
	obj := NewCompactness(polys)
	before := obj.Total(p)
	stats := Improve(p, Config{Objective: obj, Tenure: 4, MaxNoImprove: 30})
	after := obj.Total(p)
	if after > before+1e-9 {
		t.Errorf("compactness worsened: %g -> %g", before, after)
	}
	if math.Abs(stats.BestScore-after) > 1e-9 {
		t.Errorf("BestScore %g != final %g", stats.BestScore, after)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestWeightedObjective(t *testing.T) {
	p, polys := randomBiPartition(t, 5, 5, 5)
	comp := NewCompactness(polys)
	w := &Weighted{
		Objectives: []Objective{Heterogeneity{}, comp},
		Weights:    []float64{1, 0.5},
	}
	wantTotal := p.Heterogeneity() + 0.5*comp.Total(p)
	if math.Abs(w.Total(p)-wantTotal) > 1e-9 {
		t.Errorf("weighted total = %g, want %g", w.Total(p), wantTotal)
	}
	ids := p.RegionIDs()
	border := p.BorderAreasBetween(ids[0], ids[1])
	if len(border) > 0 {
		a := border[0]
		want := p.HeteroDeltaMove(a, ids[1]) + 0.5*comp.DeltaMove(p, a, ids[1])
		if math.Abs(w.DeltaMove(p, a, ids[1])-want) > 1e-9 {
			t.Error("weighted delta wrong")
		}
	}
	// Running tabu under a weighted objective keeps all invariants.
	Improve(p, Config{Objective: w, Tenure: 3, MaxNoImprove: 20})
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCompactnessEmptyRegionSSE(t *testing.T) {
	c := &Compactness{Centroids: []geom.Point{{X: 1, Y: 1}}}
	if c.regionSSE(nil) != 0 {
		t.Error("empty region SSE should be 0")
	}
	if c.regionSSE([]int{0}) > 1e-12 {
		t.Error("singleton region SSE should be 0")
	}
}

// TestReindex: Compactness keeps the centroids of the chosen areas in order,
// Weighted re-indexes the components that hold per-area state and keeps the
// rest, and an objective without per-area state comes back unchanged.
func TestReindex(t *testing.T) {
	_, polys := randomBiPartition(t, 3, 4, 3)
	comp := NewCompactness(polys)
	ids := []int{7, 2, 11}
	sub, ok := Reindex(comp, ids).(*Compactness)
	if !ok || len(sub.Centroids) != len(ids) {
		t.Fatalf("Reindex(Compactness) = %#v", sub)
	}
	for i, a := range ids {
		if sub.Centroids[i] != comp.Centroids[a] {
			t.Errorf("centroid %d = %v, want area %d's %v", i, sub.Centroids[i], a, comp.Centroids[a])
		}
	}
	w := &Weighted{Objectives: []Objective{comp, Heterogeneity{}}, Weights: []float64{2, 3}}
	sw, ok := Reindex(w, ids).(*Weighted)
	if !ok || len(sw.Objectives) != 2 {
		t.Fatalf("Reindex(Weighted) = %#v", sw)
	}
	if c, ok := sw.Objectives[0].(*Compactness); !ok || len(c.Centroids) != len(ids) {
		t.Errorf("Weighted's compactness not re-indexed: %#v", sw.Objectives[0])
	}
	if sw.Objectives[1] != (Heterogeneity{}) || sw.Weights[0] != 2 || sw.Weights[1] != 3 {
		t.Errorf("Weighted lost its other component or weights: %#v", sw)
	}
	if len(comp.Centroids) != len(polys) || len(w.Objectives[0].(*Compactness).Centroids) != len(polys) {
		t.Error("Reindex mutated its receiver")
	}
	if Reindex(Heterogeneity{}, ids) != (Heterogeneity{}) || Reindex(nil, ids) != nil {
		t.Error("an objective without per-area state must come back unchanged")
	}
}
