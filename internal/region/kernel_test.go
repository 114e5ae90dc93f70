package region

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/geom"
)

// gridPartition builds a cols x rows lattice with the given dissimilarity
// values and an empty constraint set.
func gridPartition(t *testing.T, cols, rows int, dis []float64, multi bool) *Partition {
	t.Helper()
	polys := geom.Lattice(geom.LatticeOptions{Cols: cols, Rows: rows})
	ds := data.FromPolygons("k", polys, geom.Rook)
	if err := ds.AddColumn("D", dis); err != nil {
		t.Fatal(err)
	}
	if multi {
		// Second attribute correlated with position, to exercise the
		// multivariate Manhattan path.
		d2 := make([]float64, len(dis))
		for i := range d2 {
			d2[i] = float64(i % 5)
		}
		if err := ds.AddColumn("D2", d2); err != nil {
			t.Fatal(err)
		}
		ds.DissimilarityAttrs = []string{"D", "D2"}
	} else {
		ds.Dissimilarity = "D"
	}
	ev, err := constraint.NewEvaluator(constraint.Set{}, ds.Column)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPartition(ds, ev)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestKernelQueryMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, multi := range []bool{false, true} {
		n := 48
		dis := make([]float64, n)
		for i := range dis {
			dis[i] = math.Round(rng.Float64()*100) / 4 // include ties
		}
		p := gridPartition(t, 8, 6, dis, multi)
		order := p.Graph().BFSOrder(0, nil)
		r := p.NewRegion(order[:30]...) // above the build threshold
		if r.fen == nil {
			t.Fatalf("multi=%v: expected a Fenwick index for a %d-member region (threshold %d)",
				multi, r.Size(), p.krn.minFen)
		}
		for a := 0; a < n; a++ {
			got := p.krn.query(r.fen, a)
			want := p.sumAbsDiff(a, r.Members)
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("multi=%v area %d: kernel %g != naive %g", multi, a, got, want)
			}
		}
	}
}

func TestKernelDeltaMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 64
	dis := make([]float64, n)
	for i := range dis {
		dis[i] = float64(rng.Intn(40))
	}
	p := gridPartition(t, 8, 8, dis, false)
	order := p.Graph().BFSOrder(0, nil)
	r1 := p.NewRegion(order[:32]...)
	r2 := p.NewRegion(order[32:]...)

	naive := p.Clone()
	naive.SetHeteroKernel(false)
	for _, r := range []*Region{r1, r2} {
		if r.fen == nil {
			t.Fatalf("region %d: kernel index not built", r.ID)
		}
	}
	for _, a := range p.BorderAreasBetween(r1.ID, r2.ID) {
		got := p.HeteroDeltaMove(a, r2.ID)
		want := naive.HeteroDeltaMove(a, r2.ID)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("area %d: kernel delta %g != naive delta %g", a, got, want)
		}
	}
}

// TestKernelRandomMutations drives random add/remove/move/merge sequences
// and checks Validate (whose heterogeneity oracle is the naive pairwise
// recompute) after every step, with the kernel on.
func TestKernelRandomMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		cols, rows := 5+rng.Intn(4), 5+rng.Intn(4)
		n := cols * rows
		dis := make([]float64, n)
		for i := range dis {
			dis[i] = float64(rng.Intn(25)) // many ties
		}
		p := gridPartition(t, cols, rows, dis, trial%2 == 1)
		order := p.Graph().BFSOrder(0, nil)
		half := len(order) / 2
		p.NewRegion(order[:half]...)
		p.NewRegion(order[half:]...)
		if err := p.Validate(); err != nil {
			continue // second BFS half may be discontiguous; skip
		}
		for step := 0; step < 60; step++ {
			ids := p.RegionIDs()
			switch rng.Intn(4) {
			case 0: // move a border area
				if len(ids) < 2 {
					continue
				}
				f, to := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
				if f == to {
					continue
				}
				border := p.BorderAreasBetween(f, to)
				if len(border) == 0 {
					continue
				}
				a := border[rng.Intn(len(border))]
				if p.Region(f).Size() > 1 && p.CanRemove(a) {
					p.MoveArea(a, to)
				}
			case 1: // remove a removable boundary area
				id := ids[rng.Intn(len(ids))]
				r := p.Region(id)
				if r.Size() <= 1 {
					continue
				}
				rem := p.RemovableMembers(id)
				for i, okRem := range rem {
					if okRem {
						p.RemoveArea(r.Members[i])
						break
					}
				}
			case 2: // re-add an unassigned area next to a region
				for _, a := range p.UnassignedAreas() {
					done := false
					for _, nb := range p.Graph().Neighbors(a) {
						if id := p.Assignment(int(nb)); id != Unassigned {
							p.AddArea(id, a)
							done = true
							break
						}
					}
					if done {
						break
					}
				}
			case 3: // merge two adjacent regions
				if len(ids) < 3 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				nbs := p.NeighborRegions(id)
				if len(nbs) > 0 {
					p.MergeRegions(id, nbs[rng.Intn(len(nbs))])
				}
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
}

func TestSetHeteroKernelTogglesIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 36
	dis := make([]float64, n)
	for i := range dis {
		dis[i] = rng.Float64() * 10
	}
	p := gridPartition(t, 6, 6, dis, false)
	order := p.Graph().BFSOrder(0, nil)
	r := p.NewRegion(order...)
	if r.fen == nil {
		t.Fatal("kernel index not built for a large region")
	}
	h := p.Heterogeneity()
	p.SetHeteroKernel(false)
	if r.fen != nil {
		t.Error("index not dropped on disable")
	}
	if p.HeteroKernelEnabled() {
		t.Error("HeteroKernelEnabled after disable")
	}
	if got := p.Heterogeneity(); got != h {
		t.Errorf("H changed on disable: %g != %g", got, h)
	}
	p.SetHeteroKernel(true)
	if r.fen == nil {
		t.Error("index not rebuilt on enable")
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCloneRebuildsKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 40
	dis := make([]float64, n)
	for i := range dis {
		dis[i] = rng.Float64() * 50
	}
	p := gridPartition(t, 8, 5, dis, false)
	order := p.Graph().BFSOrder(0, nil)
	p.NewRegion(order...)
	c := p.Clone()
	for _, id := range c.RegionIDs() {
		if c.Region(id).fen == nil {
			t.Errorf("clone region %d: kernel index missing", id)
		}
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
	// Mutating the clone must not corrupt the original.
	c.RemoveArea(order[len(order)-1])
	if err := p.Validate(); err != nil {
		t.Errorf("original corrupted by clone mutation: %v", err)
	}
}

func TestHeterogeneityDeterministicOrder(t *testing.T) {
	// Build many regions with heterogeneity values whose float sum is
	// order-sensitive, then check repeated evaluation is stable.
	rng := rand.New(rand.NewSource(17))
	n := 64
	dis := make([]float64, n)
	for i := range dis {
		dis[i] = rng.Float64() * 1e6
	}
	p := gridPartition(t, 8, 8, dis, false)
	for row := 0; row < 8; row++ {
		areas := make([]int, 8)
		for c := 0; c < 8; c++ {
			areas[c] = row*8 + c
		}
		p.NewRegion(areas...)
	}
	h := p.Heterogeneity()
	for i := 0; i < 50; i++ {
		if got := p.Heterogeneity(); got != h {
			t.Fatalf("Heterogeneity not reproducible: %g != %g", got, h)
		}
	}
}

// TestAppendRegionState: a region's appended state survives a member leaving
// and returning to its old place (the last slot), with or without a Fenwick
// index, and shows the departure itself and a reordering of the members.
func TestAppendRegionState(t *testing.T) {
	n := 48
	dis := make([]float64, n)
	for i := range dis {
		dis[i] = float64((i * 7) % 11)
	}
	for _, kernel := range []bool{true, false} {
		p := gridPartition(t, 8, 6, dis, true)
		p.SetHeteroKernel(kernel)
		order := p.Graph().BFSOrder(0, nil)
		r1, r2 := p.NewRegion(order[:30]...), p.NewRegion(order[30:]...)
		if (r1.fen != nil) != kernel {
			t.Fatalf("kernel=%v: region has index %v", kernel, r1.fen != nil)
		}
		first, last := r1.Members[0], r1.Members[len(r1.Members)-1]
		paths := []int{first, last}
		s0 := p.AppendRegionState(nil, r1.ID, paths)
		if kernel && len(s0) <= len(p.AppendRegionState(nil, r1.ID, nil)) {
			t.Error("the index's path cells are not appended")
		}
		p.MoveArea(last, r2.ID)
		if slices.Equal(p.AppendRegionState(nil, r1.ID, paths), s0) {
			t.Errorf("kernel=%v: a departure left the state unchanged", kernel)
		}
		p.MoveArea(last, r1.ID)
		if s := p.AppendRegionState(nil, r1.ID, paths); !slices.Equal(s, s0) {
			t.Errorf("kernel=%v: the last member left and returned, state %v, want %v", kernel, s, s0)
		}
		p.MoveArea(first, r2.ID)
		p.MoveArea(first, r1.ID)
		if slices.Equal(p.AppendRegionState(nil, r1.ID, paths), s0) {
			t.Errorf("kernel=%v: reordered members left the state unchanged", kernel)
		}
	}
}
