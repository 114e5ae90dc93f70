package region

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refIDs lists the live region ids by walking every id ever issued — the
// full-table scan the live-id list replaces.
func refIDs(p *Partition) []int {
	ids := []int{}
	for id := 0; id < p.RegionIDBound(); id++ {
		if p.Region(id) != nil {
			ids = append(ids, id)
		}
	}
	return ids
}

// refHetero sums region heterogeneity over the full table in id order.
func refHetero(p *Partition) float64 {
	var h float64
	for _, id := range refIDs(p) {
		h += p.Region(id).Hetero
	}
	return h
}

// refDense densifies the assignment through a map from region id to rank.
func refDense(p *Partition) []int {
	rank := make(map[int]int)
	for i, id := range refIDs(p) {
		rank[id] = i
	}
	out := make([]int, p.Dataset().N())
	for a := range out {
		out[a] = -1
		if id := p.Assignment(a); id != Unassigned {
			out[a] = rank[id]
		}
	}
	return out
}

// TestLiveRegionListUnderRandomOps drives random sequences of every
// operation that creates, deletes or copies regions, interleaved with ones
// that only move areas, and checks after each step that Heterogeneity (bit
// for bit), RegionIDs and DenseAssignment match their full-table references.
func TestLiveRegionListUnderRandomOps(t *testing.T) {
	const cols, rows = 8, 8
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dis := make([]float64, cols*rows)
		for i := range dis {
			// Wide magnitudes make the float sum order-sensitive.
			dis[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(7)))
		}
		p := gridPartition(t, cols, rows, dis, false)
		randomRegion := func() int {
			ids := p.RegionIDs()
			if len(ids) == 0 {
				return -1
			}
			return ids[rng.Intn(len(ids))]
		}
		for step := 0; step < 200; step++ {
			op := rng.Intn(8)
			switch op {
			case 0, 1: // NewRegion from one or two unassigned areas
				ua := p.UnassignedAreas()
				if len(ua) == 0 {
					continue
				}
				a := ua[rng.Intn(len(ua))]
				areas := []int{a}
				for _, nb := range p.Graph().Neighbors(a) {
					if p.Assignment(int(nb)) == Unassigned && rng.Intn(2) == 0 {
						areas = append(areas, int(nb))
						break
					}
				}
				p.NewRegion(areas...)
			case 2: // AddArea: grow a region by an adjacent unassigned area
				id := randomRegion()
				if id < 0 {
					continue
				}
				for _, a := range p.UnassignedAreas() {
					if p.AdjacentToRegion(a, id) {
						p.AddArea(id, a)
						break
					}
				}
			case 3: // RemoveArea, which deletes the region with its last member
				id := randomRegion()
				if id < 0 {
					continue
				}
				for _, a := range p.BoundaryAreas(id) {
					if p.CanRemove(a) {
						p.RemoveArea(a)
						break
					}
				}
			case 4: // MergeRegions
				id := randomRegion()
				if id < 0 {
					continue
				}
				if nbs := p.NeighborRegions(id); len(nbs) > 0 {
					p.MergeRegions(id, nbs[rng.Intn(len(nbs))])
				}
			case 5: // DissolveRegion
				if id := randomRegion(); id >= 0 {
					p.DissolveRegion(id)
				}
			case 6: // Clone: continue on the copy
				p = p.Clone()
			case 7: // PartitionFromRegions: rebuild with ids 1..p
				var lists [][]int
				for _, id := range p.RegionIDs() {
					lists = append(lists, append([]int(nil), p.Region(id).Members...))
				}
				q, err := PartitionFromRegions(p.Dataset(), p.Evaluator(), lists)
				if err != nil {
					t.Fatal(err)
				}
				p = q
			}
			if got, want := p.Heterogeneity(), refHetero(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d op %d: Heterogeneity %v, full-table sum %v", seed, step, op, got, want)
			}
			if got, want := p.RegionIDs(), refIDs(p); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d op %d: RegionIDs %v, want %v", seed, step, op, got, want)
			}
			if got, want := p.DenseAssignment(), refDense(p); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d op %d: DenseAssignment %v, want %v", seed, step, op, got, want)
			}
			if len(p.RegionIDs()) != p.NumRegions() {
				t.Fatalf("seed %d step %d op %d: %d ids for %d regions", seed, step, op, len(p.RegionIDs()), p.NumRegions())
			}
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRegionIDsIsACopy: callers own the returned slice; writing to it must
// not corrupt the partition's internal list.
func TestRegionIDsIsACopy(t *testing.T) {
	p := gridPartition(t, 4, 1, []float64{1, 2, 3, 4}, false)
	p.NewRegion(0)
	p.NewRegion(1)
	ids := p.RegionIDs()
	ids[0] = 99
	if got := p.RegionIDs(); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("RegionIDs after caller write = %v, want [1 2]", got)
	}
}
