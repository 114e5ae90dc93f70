package region

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/geom"
)

// testPartition builds a 4x3 lattice dataset with POP = area id * 10 and a
// SUM + COUNT constraint set.
func testPartition(t *testing.T, set constraint.Set) (*Partition, *data.Dataset) {
	t.Helper()
	polys := geom.Lattice(geom.LatticeOptions{Cols: 4, Rows: 3})
	ds := data.FromPolygons("t", polys, geom.Rook)
	pop := make([]float64, 12)
	for i := range pop {
		pop[i] = float64(i * 10)
	}
	if err := ds.AddColumn("POP", pop); err != nil {
		t.Fatal(err)
	}
	ds.Dissimilarity = "POP"
	ev, err := constraint.NewEvaluator(set, ds.Column)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPartition(ds, ev)
	if err != nil {
		t.Fatal(err)
	}
	return p, ds
}

func defaultSet() constraint.Set {
	return constraint.Set{
		constraint.AtLeast(constraint.Sum, "POP", 0),
		constraint.AtLeast(constraint.Count, "", 1),
	}
}

func TestNewPartitionRequiresDissimilarity(t *testing.T) {
	ds, err := data.New("x", [][]int{{1}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := constraint.NewEvaluator(constraint.Set{}, ds.Column)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPartition(ds, ev); err == nil {
		t.Error("missing dissimilarity accepted")
	}
}

func TestNewRegionAndAssignment(t *testing.T) {
	p, _ := testPartition(t, defaultSet())
	if p.NumRegions() != 0 || p.UnassignedCount() != 12 {
		t.Fatal("fresh partition not empty")
	}
	r := p.NewRegion(0, 1)
	if r.Size() != 2 {
		t.Errorf("Size = %d", r.Size())
	}
	if p.Assignment(0) != r.ID || p.Assignment(1) != r.ID {
		t.Error("assignment not recorded")
	}
	if p.Assignment(2) != Unassigned {
		t.Error("area 2 should be unassigned")
	}
	if p.NumRegions() != 1 {
		t.Errorf("NumRegions = %d", p.NumRegions())
	}
	if p.UnassignedCount() != 10 || len(p.UnassignedAreas()) != 10 {
		t.Error("unassigned bookkeeping wrong")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Tracker reflects members: SUM(POP) = 0 + 10.
	if got := r.Tracker.Value(0); got != 10 {
		t.Errorf("tracker SUM = %v, want 10", got)
	}
}

func TestAddAreaPanicsOnAssigned(t *testing.T) {
	p, _ := testPartition(t, defaultSet())
	r1 := p.NewRegion(0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic adding assigned area")
		}
	}()
	p.AddArea(r1.ID, 0)
}

func TestRemoveAreaAndRegionDeletion(t *testing.T) {
	p, _ := testPartition(t, defaultSet())
	r := p.NewRegion(1, 0, 4) // L-shape; removing 1 keeps {0,4} connected
	p.RemoveArea(1)
	if p.Assignment(1) != Unassigned {
		t.Error("area 1 still assigned")
	}
	if r.Size() != 2 {
		t.Errorf("Size = %d", r.Size())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate after remove: %v", err)
	}
	p.RemoveArea(0)
	p.RemoveArea(4)
	if p.NumRegions() != 0 {
		t.Error("empty region not deleted")
	}
}

func TestRemoveUnassignedPanics(t *testing.T) {
	p, _ := testPartition(t, defaultSet())
	defer func() {
		if recover() == nil {
			t.Error("expected panic removing unassigned area")
		}
	}()
	p.RemoveArea(5)
}

func TestDissolveRegion(t *testing.T) {
	p, _ := testPartition(t, defaultSet())
	r := p.NewRegion(0, 1, 4)
	p.DissolveRegion(r.ID)
	if p.NumRegions() != 0 || p.UnassignedCount() != 12 {
		t.Error("dissolve did not release areas")
	}
	p.DissolveRegion(999) // no-op
}

func TestMergeRegions(t *testing.T) {
	p, _ := testPartition(t, defaultSet())
	// Lattice 4x3: areas 0,1 adjacent; 2,3 adjacent; 1,2 adjacent.
	r1 := p.NewRegion(0, 1)
	r2 := p.NewRegion(2, 3)
	h1, h2 := r1.Hetero, r2.Hetero
	p.MergeRegions(r1.ID, r2.ID)
	if p.NumRegions() != 1 {
		t.Fatal("merge did not delete source")
	}
	if p.Assignment(3) != r1.ID {
		t.Error("merged area not reassigned")
	}
	// Cross pairs: |0-20|+|0-30|+|10-20|+|10-30| = 20+30+10+20 = 80.
	want := h1 + h2 + 80
	if math.Abs(r1.Hetero-want) > 1e-9 {
		t.Errorf("merged hetero = %v, want %v", r1.Hetero, want)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate after merge: %v", err)
	}
	p.MergeRegions(r1.ID, r1.ID) // self merge is a no-op
	if p.NumRegions() != 1 {
		t.Error("self merge changed regions")
	}
}

func TestMergeUnknownPanics(t *testing.T) {
	p, _ := testPartition(t, defaultSet())
	r := p.NewRegion(0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic merging unknown region")
		}
	}()
	p.MergeRegions(r.ID, 42)
}

func TestMoveAreaAndHeteroDelta(t *testing.T) {
	p, _ := testPartition(t, defaultSet())
	r1 := p.NewRegion(0, 1) // POP 0, 10
	r2 := p.NewRegion(2, 3) // POP 20, 30
	// Move area 1 (POP 10) from r1 to r2 (adjacent to 2).
	delta := p.HeteroDeltaMove(1, r2.ID)
	before := p.Heterogeneity()
	p.MoveArea(1, r2.ID)
	after := p.Heterogeneity()
	if math.Abs((after-before)-delta) > 1e-9 {
		t.Errorf("HeteroDeltaMove = %v but actual change = %v", delta, after-before)
	}
	if p.Assignment(1) != r2.ID || r1.Size() != 1 || r2.Size() != 3 {
		t.Error("move bookkeeping wrong")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate after move: %v", err)
	}
}

func TestHeterogeneityMatchesDefinition(t *testing.T) {
	p, _ := testPartition(t, defaultSet())
	p.NewRegion(0, 1, 2) // POP 0,10,20: pairs 10+20+10 = 40
	p.NewRegion(4, 5)    // POP 40,50: 10
	if got := p.Heterogeneity(); math.Abs(got-50) > 1e-9 {
		t.Errorf("H(P) = %v, want 50", got)
	}
}

func TestContiguityChecks(t *testing.T) {
	p, _ := testPartition(t, defaultSet())
	// 4x3 lattice: region {0,1,2} is a row; removing 1 disconnects.
	r := p.NewRegion(0, 1, 2)
	if !p.RegionConnected(r.ID) {
		t.Error("row region should be connected")
	}
	if p.CanRemove(1) {
		t.Error("removing middle of a path should disconnect")
	}
	if !p.CanRemove(0) || !p.CanRemove(2) {
		t.Error("endpoints should be removable")
	}
	if p.CanRemove(7) {
		t.Error("unassigned area is not removable")
	}
	if p.RegionConnected(999) {
		t.Error("unknown region connected")
	}
	// Disconnected region detected by Validate.
	bad := p.NewRegion(8)
	p.AddArea(bad.ID, 11) // 8 and 11 are not adjacent in a 4x3 lattice
	if err := p.Validate(); err == nil {
		t.Error("Validate should flag non-contiguous region")
	}
}

func TestAdjacencyQueries(t *testing.T) {
	p, _ := testPartition(t, defaultSet())
	// Lattice 4x3:
	// 0 1 2 3
	// 4 5 6 7
	// 8 9 10 11
	r1 := p.NewRegion(0, 1)
	r2 := p.NewRegion(2, 3)
	r3 := p.NewRegion(8, 9)
	if !p.AdjacentToRegion(5, r1.ID) {
		t.Error("area 5 is adjacent to region {0,1} via 1")
	}
	if p.AdjacentToRegion(7, r1.ID) {
		t.Error("area 7 is not adjacent to region {0,1}")
	}
	nbs := p.NeighborRegions(r1.ID)
	if len(nbs) != 1 || nbs[0] != r2.ID {
		t.Errorf("NeighborRegions(r1) = %v, want [%d]", nbs, r2.ID)
	}
	if got := p.NeighborRegions(999); got != nil {
		t.Error("unknown region should have nil neighbors")
	}
	_ = r3
	// All of r1's members touch the outside.
	if got := p.BoundaryAreas(r1.ID); len(got) != 2 {
		t.Errorf("BoundaryAreas = %v", got)
	}
	if got := p.BoundaryAreas(999); got != nil {
		t.Error("unknown region boundary should be nil")
	}
	border := p.BorderAreasBetween(r1.ID, r2.ID)
	if len(border) != 1 || border[0] != 1 {
		t.Errorf("BorderAreasBetween = %v, want [1]", border)
	}
	if got := p.BorderAreasBetween(999, r2.ID); got != nil {
		t.Error("unknown region border should be nil")
	}
}

func TestAllSatisfied(t *testing.T) {
	set := constraint.Set{constraint.New(constraint.Sum, "POP", 30, 100)}
	p, _ := testPartition(t, set)
	r1 := p.NewRegion(0, 1, 2) // sum 30 ok
	if !p.AllSatisfied() {
		t.Error("sum 30 should satisfy [30,100]")
	}
	p.NewRegion(3) // sum 30 ok too
	if !p.AllSatisfied() {
		t.Error("both regions satisfy")
	}
	p.NewRegion(4) // sum 40 ok
	p.RemoveArea(2)
	_ = r1 // r1 now sums to 10 < 30
	if p.AllSatisfied() {
		t.Error("region below lower bound should fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	p, _ := testPartition(t, defaultSet())
	r := p.NewRegion(0, 1)
	c := p.Clone()
	c.RemoveArea(1)
	if r.Size() != 2 || p.Assignment(1) == Unassigned {
		t.Error("clone mutation affected original")
	}
	if c.Region(r.ID).Size() != 1 {
		t.Error("clone did not apply mutation")
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
	// New regions in the clone must not collide with original ids.
	nr := c.NewRegion(5)
	if p.Region(nr.ID) != nil {
		t.Error("clone region id collides with original")
	}
}

func TestRegionIDsSorted(t *testing.T) {
	p, _ := testPartition(t, defaultSet())
	p.NewRegion(0)
	p.NewRegion(2)
	p.NewRegion(4)
	ids := p.RegionIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Errorf("ids not sorted: %v", ids)
		}
	}
}

func TestSummarize(t *testing.T) {
	p, _ := testPartition(t, defaultSet())
	p.NewRegion(0, 1)
	s := p.Summarize()
	if s.P != 1 || s.UnassignedLen != 10 || s.Heterogeneity != 10 {
		t.Errorf("Summary = %+v", s)
	}
}

// Property: after an arbitrary valid mutation sequence, Validate passes and
// heterogeneity matches a full recomputation.
func TestPartitionInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		polys := geom.Lattice(geom.LatticeOptions{Cols: 5, Rows: 5})
		ds := data.FromPolygons("q", polys, geom.Rook)
		pop := make([]float64, 25)
		for i := range pop {
			pop[i] = float64(rng.Intn(100))
		}
		if err := ds.AddColumn("POP", pop); err != nil {
			return false
		}
		ds.Dissimilarity = "POP"
		ev, err := constraint.NewEvaluator(defaultSet(), ds.Column)
		if err != nil {
			return false
		}
		p, err := NewPartition(ds, ev)
		if err != nil {
			return false
		}
		for op := 0; op < 40; op++ {
			switch rng.Intn(4) {
			case 0: // new region from random unassigned area
				ua := p.UnassignedAreas()
				if len(ua) > 0 {
					p.NewRegion(ua[rng.Intn(len(ua))])
				}
			case 1: // grow a region with an adjacent unassigned area
				ids := p.RegionIDs()
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				for _, a := range p.UnassignedAreas() {
					if p.AdjacentToRegion(a, id) {
						p.AddArea(id, a)
						break
					}
				}
			case 2: // remove a removable boundary area
				ids := p.RegionIDs()
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				for _, a := range p.BoundaryAreas(id) {
					if p.CanRemove(a) {
						p.RemoveArea(a)
						break
					}
				}
			case 3: // merge adjacent regions
				ids := p.RegionIDs()
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				nbs := p.NeighborRegions(id)
				if len(nbs) > 0 {
					p.MergeRegions(id, nbs[rng.Intn(len(nbs))])
				}
			}
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
