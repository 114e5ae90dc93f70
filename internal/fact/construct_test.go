package fact

import (
	"math/rand"
	"testing"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/geom"
	"emp/internal/prep"
	"emp/internal/region"
	"emp/internal/solvecache"
)

// newBuilder prepares a builder over the dataset for white-box tests of the
// construction steps.
func newBuilder(t *testing.T, ds *data.Dataset, set constraint.Set, order Order) *builder {
	t.Helper()
	ev, err := constraint.NewEvaluator(set, ds.Column)
	if err != nil {
		t.Fatal(err)
	}
	feas, err := Analyze(ds, ev)
	if err != nil {
		t.Fatal(err)
	}
	if !feas.Feasible {
		t.Fatalf("fixture infeasible: %v", feas.Reasons)
	}
	p, err := region.NewPartition(ds, ev)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Order: order}.withDefaults(ds.N())
	b := &builder{
		ds:     ds,
		ev:     ev,
		g:      ds.Graph(),
		feas:   feas,
		cfg:    &cfg,
		rng:    rand.New(rand.NewSource(1)),
		p:      p,
		avgIdx: -1,
	}
	for i, c := range ev.Set() {
		if c.Agg == constraint.Avg {
			b.avgIdx = i
			break
		}
	}
	return b
}

// pathDataset builds a 1 x n path with the given attribute values.
func pathDataset(t *testing.T, vals []float64) *data.Dataset {
	t.Helper()
	polys := geom.Lattice(geom.LatticeOptions{Cols: len(vals), Rows: 1})
	ds := data.FromPolygons("path", polys, geom.Rook)
	if err := ds.AddColumn("s", vals); err != nil {
		t.Fatal(err)
	}
	ds.Dissimilarity = "s"
	return ds
}

func TestAvgClass(t *testing.T) {
	ds := pathDataset(t, []float64{1, 5, 9})
	set := constraint.Set{constraint.New(constraint.Avg, "s", 4, 6)}
	b := newBuilder(t, ds, set, OrderAscending)
	if b.avgClass(0) != -1 || b.avgClass(1) != 0 || b.avgClass(2) != +1 {
		t.Errorf("classes = %d %d %d", b.avgClass(0), b.avgClass(1), b.avgClass(2))
	}
	// Without an AVG constraint everything is in range.
	b2 := newBuilder(t, ds, constraint.Set{constraint.AtLeast(constraint.Sum, "s", 1)}, OrderAscending)
	for a := 0; a < 3; a++ {
		if b2.avgClass(a) != 0 {
			t.Errorf("no-AVG class of %d = %d", a, b2.avgClass(a))
		}
	}
}

func TestShuffledAreasOrders(t *testing.T) {
	ds := pathDataset(t, []float64{1, 2, 3, 4, 5})
	set := constraint.Set{constraint.AtLeast(constraint.Sum, "s", 1)}

	asc := newBuilder(t, ds, set, OrderAscending).shuffledAreas()
	for i, a := range asc {
		if a != i {
			t.Errorf("ascending[%d] = %d", i, a)
		}
	}
	desc := newBuilder(t, ds, set, OrderDescending).shuffledAreas()
	for i, a := range desc {
		if a != 4-i {
			t.Errorf("descending[%d] = %d", i, a)
		}
	}
	rnd := newBuilder(t, ds, set, OrderRandom).shuffledAreas()
	seen := make(map[int]bool)
	for _, a := range rnd {
		seen[a] = true
	}
	if len(seen) != 5 {
		t.Errorf("random order lost areas: %v", rnd)
	}
}

// TestAlgorithm1GrowsAcrossRange reproduces the Algorithm 1 mechanics: a
// low seed absorbs a high neighbor to land the average inside the range.
func TestAlgorithm1GrowsAcrossRange(t *testing.T) {
	// Path: 2 - 7 - 2 - 9. AVG range [4, 5].
	ds := pathDataset(t, []float64{2, 7, 2, 9})
	set := constraint.Set{
		constraint.New(constraint.Min, "s", 2, 3), // seeds: areas with s in [2,3]
		constraint.New(constraint.Avg, "s", 4, 5),
	}
	b := newBuilder(t, ds, set, OrderAscending)
	// Seeds are areas 0 and 2 (value 2); both are AVG-low.
	b.mergeAreasAlgorithm1([]int{0, 2})
	// Area 0 should merge with neighbor 1 (avg (2+7)/2 = 4.5 in range).
	r0 := b.p.Region(b.p.Assignment(0))
	if r0 == nil {
		t.Fatal("area 0 not assigned")
	}
	if got := r0.Tracker.Value(1); got < 4 || got > 5 {
		t.Errorf("region avg = %g, want within [4,5]", got)
	}
	if b.p.Assignment(1) != r0.ID {
		t.Error("area 1 not absorbed into area 0's region")
	}
	// Area 2's only remaining neighbor is 3 (value 9): (2+9)/2 = 5.5 > 5.
	// No further unassigned opposite-side neighbor exists, so growth fails
	// and area 2 stays unassigned.
	if b.p.Assignment(2) != region.Unassigned {
		t.Errorf("area 2 should remain unassigned, got region %d", b.p.Assignment(2))
	}
}

func TestAlgorithm1WithoutAvgMakesSingletons(t *testing.T) {
	ds := pathDataset(t, []float64{5, 6, 7})
	set := constraint.Set{constraint.AtLeast(constraint.Sum, "s", 1)}
	b := newBuilder(t, ds, set, OrderAscending)
	b.mergeAreasAlgorithm1([]int{0, 2})
	if b.p.NumRegions() != 2 {
		t.Errorf("regions = %d, want 2 singletons", b.p.NumRegions())
	}
}

func TestRangeDist(t *testing.T) {
	c := constraint.New(constraint.Avg, "s", 4, 6)
	if rangeDist(5, c) != 0 || rangeDist(4, c) != 0 || rangeDist(6, c) != 0 {
		t.Error("inside range should be 0")
	}
	if rangeDist(2, c) != 2 || rangeDist(9, c) != 3 {
		t.Error("outside distances wrong")
	}
}

// TestTryAttachGuardsUpperBounds: round 1 must not attach an area that
// would push a counting constraint past its upper bound.
func TestTryAttachGuardsUpperBounds(t *testing.T) {
	ds := pathDataset(t, []float64{10, 10, 10})
	set := constraint.Set{constraint.New(constraint.Sum, "s", 10, 25)}
	b := newBuilder(t, ds, set, OrderAscending)
	r := b.p.NewRegion(0)
	b.p.AddArea(r.ID, 1) // sum 20
	if b.tryAttach(2) {
		t.Error("attach should fail: sum would reach 30 > 25")
	}
	if b.p.Assignment(2) != region.Unassigned {
		t.Error("area 2 assigned despite guard")
	}
}

// TestCombineForExtrema: two singleton regions each satisfying one extrema
// constraint merge into one region satisfying both.
func TestCombineForExtrema(t *testing.T) {
	// Values: 2 (MIN seed), 7 (MAX seed). MIN in [2,3], MAX in [6,7].
	ds := pathDataset(t, []float64{2, 7})
	set := constraint.Set{
		constraint.New(constraint.Min, "s", 2, 3),
		constraint.New(constraint.Max, "s", 6, 7),
	}
	b := newBuilder(t, ds, set, OrderAscending)
	b.p.NewRegion(0)
	b.p.NewRegion(1)
	b.combineForExtrema()
	if b.p.NumRegions() != 1 {
		t.Fatalf("regions = %d, want 1 after combining", b.p.NumRegions())
	}
	for _, id := range b.p.RegionIDs() {
		if !b.p.Region(id).Tracker.SatisfiedAll() {
			t.Error("combined region violates extrema")
		}
	}
}

// TestCombineForExtremaDissolvesHopeless: a region that cannot satisfy an
// extrema constraint and has no compatible neighbor dissolves.
func TestCombineForExtremaDissolvesHopeless(t *testing.T) {
	// Single area with value 2: satisfies MIN [2,3] but not MAX [6,7]
	// (max = 2 < 6), and there is no neighbor to merge with... use two
	// areas both value 2 so neither has a MAX seed.
	ds := pathDataset(t, []float64{2, 2})
	set := constraint.Set{
		constraint.New(constraint.Min, "s", 2, 3),
		constraint.New(constraint.Max, "s", 6, 7),
	}
	ev, err := constraint.NewEvaluator(set, ds.Column)
	if err != nil {
		t.Fatal(err)
	}
	feas, err := Analyze(ds, ev)
	if err != nil {
		t.Fatal(err)
	}
	// No area satisfies MAX's bounds => no MAX seed... the feasibility
	// phase flags that as infeasible. Construct manually to exercise the
	// dissolve path anyway.
	if feas.Feasible {
		t.Fatal("fixture should be infeasible at the analysis level")
	}
	p, err := region.NewPartition(ds, ev)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}.withDefaults(2)
	b := &builder{ds: ds, ev: ev, g: ds.Graph(), feas: feas, cfg: &cfg, rng: rand.New(rand.NewSource(1)), p: p, avgIdx: -1}
	b.p.NewRegion(0)
	b.p.NewRegion(1)
	b.combineForExtrema()
	if b.p.NumRegions() != 0 {
		t.Errorf("regions = %d, want 0 (all dissolved)", b.p.NumRegions())
	}
}

// TestPullAreasSatisfiesLowerBound: a region below the SUM lower bound
// pulls a border area from its neighbor.
func TestPullAreasSatisfiesLowerBound(t *testing.T) {
	// Path: 5 - 5 - 5 - 5. SUM >= 10. Regions {0} and {1,2,3}.
	ds := pathDataset(t, []float64{5, 5, 5, 5})
	set := constraint.Set{constraint.AtLeast(constraint.Sum, "s", 10)}
	b := newBuilder(t, ds, set, OrderAscending)
	r1 := b.p.NewRegion(0)
	b.p.NewRegion(1, 2, 3)
	b.adjustCounting()
	// r1 should have pulled area 1 (donor {2,3} keeps sum 10 >= 10).
	if got := r1.Tracker.Value(0); got < 10 {
		t.Errorf("region 1 sum = %g, want >= 10", got)
	}
	if !b.p.AllSatisfied() {
		t.Error("not all regions satisfied after adjustment")
	}
	if b.p.NumRegions() != 2 {
		t.Errorf("p = %d, want 2 preserved", b.p.NumRegions())
	}
}

// TestMergeForLowerBound: when no swap works, regions merge.
func TestMergeForLowerBound(t *testing.T) {
	// Path: 5 - 5. SUM >= 10. Two singletons must merge.
	ds := pathDataset(t, []float64{5, 5})
	set := constraint.Set{constraint.AtLeast(constraint.Sum, "s", 10)}
	b := newBuilder(t, ds, set, OrderAscending)
	b.p.NewRegion(0)
	b.p.NewRegion(1)
	b.adjustCounting()
	if b.p.NumRegions() != 1 {
		t.Fatalf("p = %d, want 1 after merge", b.p.NumRegions())
	}
	if !b.p.AllSatisfied() {
		t.Error("merged region unsatisfied")
	}
}

// TestShedAreasSatisfiesUpperBound: a region above the COUNT upper bound
// sheds boundary areas.
func TestShedAreasSatisfiesUpperBound(t *testing.T) {
	ds := pathDataset(t, []float64{1, 1, 1, 1, 1})
	set := constraint.Set{constraint.AtMost(constraint.Count, "", 3)}
	b := newBuilder(t, ds, set, OrderAscending)
	r := b.p.NewRegion(0, 1, 2, 3, 4)
	b.adjustCounting()
	if r.Size() > 3 {
		t.Errorf("region size = %d, want <= 3", r.Size())
	}
	if !b.p.RegionConnected(r.ID) {
		t.Error("shedding broke contiguity")
	}
	if b.p.UnassignedCount() != 5-r.Size() {
		t.Errorf("unassigned = %d", b.p.UnassignedCount())
	}
}

// TestDissolveInfeasibleDropsViolators: regions that cannot be repaired are
// dissolved at the end of construction.
func TestDissolveInfeasibleDropsViolators(t *testing.T) {
	ds := pathDataset(t, []float64{1, 1})
	set := constraint.Set{constraint.AtLeast(constraint.Sum, "s", 2)}
	b := newBuilder(t, ds, set, OrderAscending)
	b.p.NewRegion(0) // sum 1 < 2, no fix available after the other also fails
	b.p.NewRegion(1)
	b.adjustCounting() // merges them: sum 2 ok
	b.dissolveInfeasible()
	if b.p.NumRegions() != 1 {
		t.Errorf("p = %d", b.p.NumRegions())
	}
	// Now force an unfixable region.
	b2 := newBuilder(t, ds, constraint.Set{constraint.AtLeast(constraint.Sum, "s", 2)}, OrderAscending)
	r := b2.p.NewRegion(0)
	_ = r
	b2.dissolveInfeasible()
	if b2.p.NumRegions() != 0 {
		t.Error("violating region survived dissolveInfeasible")
	}
}

// TestConstructProducesMaxPShapeOnUniformPath: n uniform areas with
// SUM >= 2*v should yield floor(n/2) regions.
func TestConstructProducesMaxPShapeOnUniformPath(t *testing.T) {
	vals := make([]float64, 10)
	for i := range vals {
		vals[i] = 1
	}
	ds := pathDataset(t, vals)
	set := constraint.Set{constraint.AtLeast(constraint.Sum, "s", 2)}
	res, err := Solve(ds, set, Config{Order: OrderAscending, Seed: 1, SkipLocalSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 5 {
		t.Errorf("p = %d, want 5 on a uniform path", res.P)
	}
	if res.Unassigned != 0 {
		t.Errorf("unassigned = %d", res.Unassigned)
	}
}

// TestMergedPlusAreaSafe checks the round-2 merge predicate directly.
func TestMergedPlusAreaSafe(t *testing.T) {
	ds := pathDataset(t, []float64{2, 6, 2, 20})
	set := constraint.Set{
		constraint.New(constraint.Avg, "s", 3, 4),
		constraint.AtMost(constraint.Sum, "s", 15),
	}
	b := newBuilder(t, ds, set, OrderAscending)
	r1 := b.p.NewRegion(0) // value 2
	r2 := b.p.NewRegion(1) // value 6
	// Merge {0} + {1} + area 2 => avg 10/3 = 3.33 in range, sum 10 <= 15.
	if !b.mergedPlusAreaSafe(r1, r2, 2) {
		t.Error("safe merge rejected")
	}
	// Merge {0} + {1} + area 3 => avg 28/3 = 9.3 out of range, sum 28 > 15.
	if b.mergedPlusAreaSafe(r1, r2, 3) {
		t.Error("unsafe merge accepted")
	}
}

// preparedConstruction returns a prepared census dataset and a
// construction-only config over it.
func preparedConstruction(tb testing.TB, name string) (*data.Dataset, Config) {
	tb.Helper()
	ds, err := census.Named(name)
	if err != nil {
		tb.Fatal(err)
	}
	art, err := prep.New(ds)
	if err != nil {
		tb.Fatal(err)
	}
	return ds, Config{Seed: 1, SkipLocalSearch: true, Prepared: art, Pool: solvecache.NewPool(1)}
}

// TestConstructionAllocs guards the allocation rate of the construction
// phase on prepared 8k: Step 2 and Step 3 run on reused scratch (no per-call
// maps, no per-trial tracker clones, no per-candidate BFS maps, one swap
// list per Step 3 visit), and region shells and trackers come from chunks,
// so opening a region per seed costs a fraction of an allocation. It
// measures 0.39 (SUM) and 2.22 (AVG + SUM) allocations per area; a shell
// or tracker allocated per region puts SUM back near 6.9, and per-call
// maps or clones in any step push both well past the bound.
func TestConstructionAllocs(t *testing.T) {
	const maxPerArea = 4
	ds, cfg := preparedConstruction(t, "8k")
	for _, cons := range []string{
		"SUM(TOTALPOP) >= 20000",
		"AVG(EMPLOYED) in [2000,4000]; SUM(TOTALPOP) >= 20000",
	} {
		set, err := constraint.ParseSet(cons)
		if err != nil {
			t.Fatal(err)
		}
		var solveErr error
		allocs := testing.AllocsPerRun(2, func() { _, solveErr = Solve(ds, set, cfg) })
		if solveErr != nil {
			t.Fatalf("%s: %v", cons, solveErr)
		}
		if perArea := allocs / float64(ds.N()); perArea > maxPerArea {
			t.Errorf("%s: construction makes %.2f allocations per area, want <= %d", cons, perArea, maxPerArea)
		}
	}
}

// BenchmarkConstruct times one construction-only solve of prepared 20k (three
// components, solved one after another on a one-slot pool), the phase the
// paper's Steps 1-3 cover. Run with -benchmem to see its allocations.
func BenchmarkConstruct(b *testing.B) {
	ds, cfg := preparedConstruction(b, "20k")
	set, err := constraint.ParseSet("SUM(TOTALPOP) >= 20000")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(ds, set, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
