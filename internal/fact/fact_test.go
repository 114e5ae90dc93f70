package fact

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/geom"
	"emp/internal/region"
)

// checkSolution asserts the EMP output contract: partition invariants hold,
// every region satisfies every constraint, p matches, and p never exceeds
// the seed-count upper bound.
func checkSolution(t *testing.T, res *Result, set constraint.Set) {
	t.Helper()
	p := res.Partition
	if p == nil {
		t.Fatal("nil partition on feasible result")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("partition invariant broken: %v", err)
	}
	if !p.AllSatisfied() {
		for _, id := range p.RegionIDs() {
			r := p.Region(id)
			if !r.Tracker.SatisfiedAll() {
				t.Fatalf("region %d (size %d) violates constraints %v", id, r.Size(), set)
			}
		}
	}
	if res.P != p.NumRegions() {
		t.Errorf("res.P = %d but partition has %d regions", res.P, p.NumRegions())
	}
	if res.Unassigned != p.UnassignedCount() {
		t.Errorf("res.Unassigned = %d but partition has %d", res.Unassigned, p.UnassignedCount())
	}
	if res.P > res.Feasibility.SeedCount && res.Feasibility.SeedCount > 0 {
		t.Errorf("p = %d exceeds seed-count upper bound %d", res.P, res.Feasibility.SeedCount)
	}
	if res.HeteroAfter > res.HeteroBefore+1e-9 {
		t.Errorf("local search worsened heterogeneity: %g -> %g", res.HeteroBefore, res.HeteroAfter)
	}
}

// TestSolvePaperExample runs the full paper running example: Fig. 1
// extrema constraints plus the Fig. 2 AVG constraint.
func TestSolvePaperExample(t *testing.T) {
	ds := paperExample(t)
	set := constraint.Set{
		constraint.New(constraint.Min, "s", 2, 4),
		constraint.New(constraint.Max, "s", 6, 7),
		constraint.New(constraint.Avg, "s", 4, 5),
	}
	res, err := Solve(ds, set, Config{Order: OrderAscending, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, set)
	// a1, a8, a9 are invalid and must stay unassigned.
	for _, a := range []int{0, 7, 8} {
		if res.Partition.Assignment(a) != region.Unassigned {
			t.Errorf("invalid area a%d was assigned", a+1)
		}
	}
	if res.P < 1 {
		t.Errorf("p = %d, want >= 1", res.P)
	}
	// Each region's avg of s must be within [4, 5].
	for _, id := range res.Partition.RegionIDs() {
		r := res.Partition.Region(id)
		avg := r.Tracker.Value(2)
		if avg < 4 || avg > 5 {
			t.Errorf("region %d avg = %g outside [4,5]", id, avg)
		}
	}
}

// TestSolvePaperStep3Example adds the Fig. 4 counting constraints:
// SUM(s) >= 12 and COUNT <= 4.
func TestSolvePaperStep3Example(t *testing.T) {
	ds := paperExample(t)
	set := constraint.Set{
		constraint.New(constraint.Min, "s", 2, 4),
		constraint.New(constraint.Max, "s", 6, 7),
		constraint.New(constraint.Avg, "s", 4, 5),
		constraint.AtLeast(constraint.Sum, "s", 12),
		constraint.AtMost(constraint.Count, "", 4),
	}
	res, err := Solve(ds, set, Config{Order: OrderAscending, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, set)
	for _, id := range res.Partition.RegionIDs() {
		r := res.Partition.Region(id)
		if r.Size() > 4 {
			t.Errorf("region %d has %d areas, violates COUNT <= 4", id, r.Size())
		}
		if got := r.Tracker.Value(3); got < 12 {
			t.Errorf("region %d sum = %g < 12", id, got)
		}
	}
}

func TestSolveInfeasibleReturnsErr(t *testing.T) {
	ds := paperExample(t)
	set := constraint.Set{constraint.AtLeast(constraint.Sum, "s", 1e9)}
	res, err := Solve(ds, set, Config{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if res == nil || res.Feasibility == nil || res.Feasibility.Feasible {
		t.Error("infeasible result should carry the feasibility report")
	}
	if res.Partition != nil {
		t.Error("infeasible result should have no partition")
	}
}

func TestSolveEmptyDataset(t *testing.T) {
	ds := &data.Dataset{Name: "empty"}
	if _, err := Solve(ds, constraint.Set{}, Config{}); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestSolveUnknownAttribute(t *testing.T) {
	ds := paperExample(t)
	set := constraint.Set{constraint.AtLeast(constraint.Sum, "GHOST", 1)}
	if _, err := Solve(ds, set, Config{}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

// TestSolveSumOnlyMaxP: with a single SUM lower bound (the classic
// MP-regions setting) on a uniform grid, the optimal p is floor(total/l)
// when areas tile evenly; FaCT should get close.
func TestSolveSumOnlyMaxP(t *testing.T) {
	polys := geom.Lattice(geom.LatticeOptions{Cols: 6, Rows: 6})
	ds := data.FromPolygons("grid6", polys, geom.Rook)
	pop := make([]float64, 36)
	for i := range pop {
		pop[i] = 10
	}
	if err := ds.AddColumn("POP", pop); err != nil {
		t.Fatal(err)
	}
	ds.Dissimilarity = "POP"
	set := constraint.Set{constraint.AtLeast(constraint.Sum, "POP", 40)}
	res, err := Solve(ds, set, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, set)
	// Upper bound: 360/40 = 9 regions. Greedy should land in [6, 9].
	if res.P < 6 || res.P > 9 {
		t.Errorf("p = %d, want within [6, 9]", res.P)
	}
	if res.Unassigned != 0 {
		// All areas assignable in this uniform instance; a few leftovers
		// are tolerable but most should be assigned.
		if res.Unassigned > 4 {
			t.Errorf("unassigned = %d, want <= 4", res.Unassigned)
		}
	}
}

// TestSolveCountConstraints exercises COUNT in both directions.
func TestSolveCountConstraints(t *testing.T) {
	polys := geom.Lattice(geom.LatticeOptions{Cols: 5, Rows: 4})
	ds := data.FromPolygons("grid54", polys, geom.Rook)
	pop := make([]float64, 20)
	for i := range pop {
		pop[i] = float64(1 + i%3)
	}
	if err := ds.AddColumn("POP", pop); err != nil {
		t.Fatal(err)
	}
	ds.Dissimilarity = "POP"
	set := constraint.Set{constraint.New(constraint.Count, "", 2, 5)}
	res, err := Solve(ds, set, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, set)
	for _, id := range res.Partition.RegionIDs() {
		sz := res.Partition.Region(id).Size()
		if sz < 2 || sz > 5 {
			t.Errorf("region %d size %d outside [2,5]", id, sz)
		}
	}
	if res.P < 4 {
		t.Errorf("p = %d, want >= 4 on a 20-area grid with regions of 2-5", res.P)
	}
}

// TestSolveMultiComponent verifies EMP's multi-component support: regions
// never span components and both components produce regions.
func TestSolveMultiComponent(t *testing.T) {
	ds, err := census.Generate(census.Options{Name: "mc", Areas: 200, States: 2, Components: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	set := constraint.Set{constraint.AtLeast(constraint.Sum, census.AttrTotalPop, 20000)}
	res, err := Solve(ds, set, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, set)
	comp, _ := ds.Graph().Components()
	perComp := make(map[int]map[int]bool)
	for a := 0; a < ds.N(); a++ {
		id := res.Partition.Assignment(a)
		if id == region.Unassigned {
			continue
		}
		if perComp[id] == nil {
			perComp[id] = make(map[int]bool)
		}
		perComp[id][comp[a]] = true
	}
	seenComps := make(map[int]bool)
	for id, comps := range perComp {
		if len(comps) != 1 {
			t.Errorf("region %d spans %d components", id, len(comps))
		}
		for c := range comps {
			seenComps[c] = true
		}
	}
	if len(seenComps) != 2 {
		t.Errorf("regions found in %d components, want 2", len(seenComps))
	}
}

// TestSolveDefaultQueryOn2kSample runs the paper's default Table II query on
// a scaled-down 2k dataset.
func TestSolveDefaultQueryOn2kSample(t *testing.T) {
	ds, err := census.Scaled("2k", 0.12, 1)
	if err != nil {
		t.Fatal(err)
	}
	set := constraint.Set{
		constraint.AtMost(constraint.Min, census.AttrPop16Up, 3000),
		constraint.New(constraint.Avg, census.AttrEmployed, 1500, 3500),
		constraint.AtLeast(constraint.Sum, census.AttrTotalPop, 20000),
	}
	res, err := Solve(ds, set, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, set)
	if res.P < 2 {
		t.Errorf("p = %d, want >= 2 on %d areas", res.P, ds.N())
	}
	if res.ConstructionTime <= 0 {
		t.Error("construction time not recorded")
	}
}

// TestSolveMoreIterationsNeverHurtsP: keeping the best over iterations
// means more iterations cannot reduce p.
func TestSolveMoreIterationsNeverHurtsP(t *testing.T) {
	ds, err := census.Scaled("1k", 0.15, 2)
	if err != nil {
		t.Fatal(err)
	}
	set := constraint.Set{constraint.AtLeast(constraint.Sum, census.AttrTotalPop, 30000)}
	r1, err := Solve(ds, set, Config{Iterations: 1, Seed: 4, SkipLocalSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Solve(ds, set, Config{Iterations: 3, Seed: 4, SkipLocalSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	if r3.P < r1.P {
		t.Errorf("3 iterations p=%d < 1 iteration p=%d", r3.P, r1.P)
	}
	if r3.Iterations != 3 {
		t.Errorf("Iterations = %d, want 3", r3.Iterations)
	}
}

func TestSolveSkipLocalSearch(t *testing.T) {
	ds, err := census.Scaled("1k", 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	set := constraint.Set{constraint.AtLeast(constraint.Sum, census.AttrTotalPop, 25000)}
	res, err := Solve(ds, set, Config{SkipLocalSearch: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TabuMoves != 0 || res.LocalSearchTime != 0 {
		t.Error("local search ran despite SkipLocalSearch")
	}
	if res.HeteroBefore != res.HeteroAfter {
		t.Error("hetero changed without local search")
	}
}

func TestHeteroImprovement(t *testing.T) {
	r := &Result{HeteroBefore: 200, HeteroAfter: 150}
	if got := r.HeteroImprovement(); got != 0.25 {
		t.Errorf("HeteroImprovement = %v, want 0.25", got)
	}
	z := &Result{HeteroBefore: 0, HeteroAfter: 0}
	if z.HeteroImprovement() != 0 {
		t.Error("zero-before improvement should be 0")
	}
}

func TestOrderString(t *testing.T) {
	if OrderRandom.String() != "random" || OrderAscending.String() != "ascending" || OrderDescending.String() != "descending" {
		t.Error("order names wrong")
	}
	if Order(9).String() != "Order(9)" {
		t.Error("unknown order string")
	}
}

// TestSolveArbitraryConstraintSubsets runs every non-empty subset of the
// five constraint types (Section V-D) on a small census sample and checks
// the output contract for each.
func TestSolveArbitraryConstraintSubsets(t *testing.T) {
	ds, err := census.Scaled("1k", 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	all := constraint.Set{
		constraint.AtMost(constraint.Min, census.AttrPop16Up, 3000),
		constraint.New(constraint.Max, census.AttrPop16Up, 3000, 1e9),
		constraint.New(constraint.Avg, census.AttrEmployed, 1000, 4000),
		constraint.AtLeast(constraint.Sum, census.AttrTotalPop, 15000),
		constraint.New(constraint.Count, "", 1, 50),
	}
	for mask := 1; mask < 1<<5; mask++ {
		var set constraint.Set
		for i := 0; i < 5; i++ {
			if mask&(1<<i) != 0 {
				set = append(set, all[i])
			}
		}
		res, err := Solve(ds, set, Config{Seed: int64(mask), SkipLocalSearch: true})
		if errors.Is(err, ErrInfeasible) {
			continue // some subsets may be infeasible on the sample; fine
		}
		if err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		if verr := res.Partition.Validate(); verr != nil {
			t.Fatalf("mask %b: %v", mask, verr)
		}
		if !res.Partition.AllSatisfied() {
			t.Fatalf("mask %b: regions violate constraints", mask)
		}
	}
}

// Property: on random small instances with a random SUM threshold, Solve
// either proves infeasibility or returns a valid partition whose regions
// all satisfy the constraint.
func TestSolveRandomInstancesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols, rows := 4+rng.Intn(4), 4+rng.Intn(3)
		polys := geom.Lattice(geom.LatticeOptions{Cols: cols, Rows: rows})
		ds := data.FromPolygons("rand", polys, geom.Rook)
		n := cols * rows
		pop := make([]float64, n)
		for i := range pop {
			pop[i] = float64(1 + rng.Intn(100))
		}
		if ds.AddColumn("POP", pop) != nil {
			return false
		}
		ds.Dissimilarity = "POP"
		lower := float64(50 + rng.Intn(300))
		set := constraint.Set{constraint.AtLeast(constraint.Sum, "POP", lower)}
		res, err := Solve(ds, set, Config{Seed: seed, SkipLocalSearch: rng.Intn(2) == 0})
		if errors.Is(err, ErrInfeasible) {
			// Infeasible only when the dataset total is under the bound.
			total := 0.0
			for _, v := range pop {
				total += v
			}
			return total < lower
		}
		if err != nil {
			return false
		}
		return res.Partition.Validate() == nil && res.Partition.AllSatisfied()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
