package region

import (
	"fmt"
	"math/rand"
	"testing"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/geom"
)

// TestCanRemoveTracksMutations: the partition's kept removability verdicts
// follow every mutation. Random sequences of NewRegion, AddArea, RemoveArea,
// MoveArea, MergeRegions, DissolveRegion and Clone — after which both copies
// are mutated — keep every region contiguous, choosing their moves by the
// map-based reference, and after each operation every member's CanRemove
// must equal graph.ConnectedSubsetExcluding. A region an operation left
// stale answers through the local test until it fails and a pass runs, and
// each check ends by making every region's verdicts current, so an
// operation that failed to make them stale is caught by the next check.
// Every sequence must see the local test answer.
func TestCanRemoveTracksMutations(t *testing.T) {
	lattice := data.FromPolygons("lattice", geom.Lattice(geom.LatticeOptions{Cols: 16, Rows: 16}), geom.Rook)
	dis := make([]float64, lattice.N())
	for i := range dis {
		dis[i] = float64(i % 7)
	}
	if err := lattice.AddColumn("D", dis); err != nil {
		t.Fatal(err)
	}
	lattice.Dissimilarity = "D"
	c2k, err := census.NamedSeeded("2k", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []*data.Dataset{lattice, c2k} {
		ev, err := constraint.NewEvaluator(constraint.Set{}, ds.Column)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", ds.Name, seed), func(t *testing.T) {
				p, err := NewPartition(ds, ev)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				local := 0
				for step := 0; step < 400; step++ {
					op := removabilityOp(rng, p)
					if op != "Clone" {
						local += checkCanRemove(t, p, step, op)
						continue
					}
					c := p.Clone()
					local += checkCanRemove(t, c, step, "Clone")
					local += checkCanRemove(t, c, step, "Clone, then "+removabilityOp(rng, c)+" on the copy")
					local += checkCanRemove(t, p, step, "Clone, then "+removabilityOp(rng, p)+" on the original")
					if rng.Intn(2) == 0 {
						p = c
					}
				}
				if local == 0 {
					t.Error("no CanRemove answer came from the local test")
				}
			})
		}
	}
}

// checkCanRemove compares every member's CanRemove with the map-based
// reference, then makes every region's verdicts current, and returns how
// many of the answers the local test gave.
func checkCanRemove(t *testing.T, p *Partition, step int, op string) int {
	t.Helper()
	before := p.stats.localRemovals
	for _, id := range p.RegionIDs() {
		r := p.Region(id)
		for _, a := range r.Members {
			if got, want := p.CanRemove(a), p.Graph().ConnectedSubsetExcluding(r.Members, a); got != want {
				t.Fatalf("step %d after %s: CanRemove(%d) in region %d = %v, want %v (members %v)",
					step, op, a, id, got, want, r.Members)
			}
		}
		p.RemovableAndBoundary(id)
	}
	return int(p.stats.localRemovals - before)
}

// removabilityOp applies one random operation that keeps every region
// contiguous and names it; "Clone" is left to the caller. Areas leave their
// regions only where the map-based reference allows it, so the sequence
// does not depend on the verdicts under test.
func removabilityOp(rng *rand.Rand, p *Partition) string {
	g := p.Graph()
	ids := p.RegionIDs()
	var id int
	if len(ids) > 0 {
		id = ids[rng.Intn(len(ids))]
	}
	// removable lists the region's members that the reference lets leave.
	removable := func(id int) []int {
		var out []int
		r := p.Region(id)
		for _, a := range r.Members {
			if g.ConnectedSubsetExcluding(r.Members, a) {
				out = append(out, a)
			}
		}
		return out
	}
	switch op := rng.Intn(10); {
	case op < 2 || len(ids) == 0:
		a := rng.Intn(p.Dataset().N())
		if p.Assignment(a) != Unassigned {
			return "nothing"
		}
		areas := []int{a}
		for _, nb := range g.Neighbors(a) {
			if p.Assignment(int(nb)) == Unassigned {
				areas = append(areas, int(nb))
				break
			}
		}
		p.NewRegion(areas...)
		return "NewRegion"
	case op < 5:
		for _, a := range p.BoundaryAreas(id) {
			for _, nb := range g.Neighbors(a) {
				if p.Assignment(int(nb)) == Unassigned {
					p.AddArea(id, int(nb))
					return "AddArea"
				}
			}
		}
	case op < 6:
		if rem := removable(id); len(rem) > 0 {
			p.RemoveArea(rem[rng.Intn(len(rem))])
			return "RemoveArea"
		}
	case op < 8:
		nbs := p.NeighborRegions(id)
		if len(nbs) == 0 || p.Region(id).Size() <= 1 {
			break
		}
		to := nbs[rng.Intn(len(nbs))]
		for _, a := range removable(id) {
			if p.AdjacentToRegion(a, to) {
				p.MoveArea(a, to)
				return "MoveArea"
			}
		}
	case op < 9:
		if nbs := p.NeighborRegions(id); len(nbs) > 0 {
			p.MergeRegions(id, nbs[rng.Intn(len(nbs))])
			return "MergeRegions"
		}
	default:
		if rng.Intn(2) == 0 {
			p.DissolveRegion(id)
			return "DissolveRegion"
		}
		return "Clone"
	}
	return "nothing"
}
