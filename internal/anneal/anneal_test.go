package anneal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/geom"
	"emp/internal/region"
	"emp/internal/tabu"
)

// gradientPartition builds a grid whose dissimilarity jumps between the top
// and bottom halves, split initially into two vertical stripes (a bad
// partition the annealer can improve).
func gradientPartition(t testing.TB, cols, rows int, set constraint.Set) *region.Partition {
	t.Helper()
	polys := geom.Lattice(geom.LatticeOptions{Cols: cols, Rows: rows})
	ds := data.FromPolygons("sa", polys, geom.Rook)
	n := cols * rows
	dis := make([]float64, n)
	for i := range dis {
		if i/cols >= rows/2 {
			dis[i] = 100
		}
	}
	if err := ds.AddColumn("D", dis); err != nil {
		t.Fatal(err)
	}
	ds.Dissimilarity = "D"
	ev, err := constraint.NewEvaluator(set, ds.Column)
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
	return p
}

func TestImproveReducesObjective(t *testing.T) {
	set := constraint.Set{constraint.New(constraint.Count, "", 2, 30)}
	p := gradientPartition(t, 6, 6, set)
	before := p.Heterogeneity()
	stats := Improve(p, Config{Seed: 1, Steps: 4000})
	after := p.Heterogeneity()
	if after > before+1e-9 {
		t.Errorf("H worsened: %g -> %g", before, after)
	}
	if stats.Improvements == 0 {
		t.Errorf("no improvement found on an easy instance: %+v", stats)
	}
	if math.Abs(stats.BestScore-after) > 1e-9 {
		t.Errorf("BestScore %g != final %g", stats.BestScore, after)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
	if p.NumRegions() != 2 || !p.AllSatisfied() {
		t.Error("p or constraints violated")
	}
}

func TestImproveEmptyPartition(t *testing.T) {
	polys := geom.Lattice(geom.LatticeOptions{Cols: 2, Rows: 2})
	ds := data.FromPolygons("e", polys, geom.Rook)
	if err := ds.AddColumn("D", []float64{1, 2, 3, 4}); err != nil {
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
	stats := Improve(p, Config{Seed: 1})
	if stats.Accepted != 0 {
		t.Error("moves accepted on empty partition")
	}
}

func TestImproveRespectsConstraints(t *testing.T) {
	set := constraint.Set{constraint.New(constraint.Count, "", 10, 26)}
	p := gradientPartition(t, 6, 6, set)
	Improve(p, Config{Seed: 2, Steps: 3000})
	for _, id := range p.RegionIDs() {
		sz := p.Region(id).Size()
		if sz < 10 || sz > 26 {
			t.Errorf("region %d size %d escaped [10,26]", id, sz)
		}
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestImproveCustomObjective(t *testing.T) {
	set := constraint.Set{}
	polys := geom.Lattice(geom.LatticeOptions{Cols: 8, Rows: 2})
	comp := tabu.NewCompactness(polys)
	p := gradientPartition(t, 8, 2, set)
	before := comp.Total(p)
	Improve(p, Config{Seed: 3, Steps: 2000, Objective: comp})
	if comp.Total(p) > before+1e-9 {
		t.Errorf("compactness worsened: %g -> %g", before, comp.Total(p))
	}
}

// Property: annealing never worsens the best objective, never changes p,
// and preserves every invariant.
func TestImproveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := constraint.Set{constraint.AtLeast(constraint.Count, "", 1)}
		p := gradientPartition(t, 4+rng.Intn(3), 4+rng.Intn(3), set)
		before := p.Heterogeneity()
		pBefore := p.NumRegions()
		Improve(p, Config{Seed: seed, Steps: 200 + rng.Intn(800)})
		if p.Heterogeneity() > before+1e-9 {
			return false
		}
		if p.NumRegions() != pBefore {
			return false
		}
		return p.Validate() == nil && p.AllSatisfied()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
