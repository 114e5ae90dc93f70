package fact

import (
	"fmt"
	"testing"

	"emp/internal/census"
	"emp/internal/constraint"
)

// warmLexBetterOrEqual asserts b is not lexicographically worse than a on
// the solve's quality order: higher p wins, then fewer unassigned areas,
// then lower heterogeneity.
func warmLexBetterOrEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	switch {
	case b.P > a.P:
	case b.P < a.P:
		t.Fatalf("%s: warm p %d worse than seed p %d", label, b.P, a.P)
	case b.Unassigned < a.Unassigned:
	case b.Unassigned > a.Unassigned:
		t.Fatalf("%s: warm unassigned %d worse than seed %d (p=%d)", label, b.Unassigned, a.Unassigned, b.P)
	case b.HeteroAfter > a.HeteroAfter+1e-9:
		t.Fatalf("%s: warm H %.6f worse than seed H %.6f (p=%d)", label, b.HeteroAfter, a.HeteroAfter, b.P)
	}
}

// TestWarmStartNeverWorseThanSeed is the warm-start differential contract:
// re-solving under the seed partition's own constraint set from
// Config.WarmStart never returns a worse (p, unassigned, H) than the seed —
// with the search skipped, warm construction reproduces the seed's quality
// exactly; with the search on, it can only improve from there.
func TestWarmStartNeverWorseThanSeed(t *testing.T) {
	ds, err := census.Scaled("2k", 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Components() != 1 {
		t.Fatalf("scaled 2k has %d components; the whole-graph path needs 1", ds.Components())
	}
	var total float64
	for _, v := range ds.Column(census.AttrTotalPop) {
		total += v
	}
	set, err := constraint.ParseSet(fmt.Sprintf("SUM(TOTALPOP) >= %d", int(total/30)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 7}
	seedRes, err := Solve(ds, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warmStart := WarmAssignment(seedRes.Partition)

	// Construction only: the warm iteration must reproduce the seed exactly.
	skipCfg := cfg
	skipCfg.WarmStart = warmStart
	skipCfg.SkipLocalSearch = true
	rebuilt, err := Solve(ds, set, skipCfg)
	if err != nil {
		t.Fatal(err)
	}
	warmLexBetterOrEqual(t, "construction-only", seedRes, rebuilt)
	if rebuilt.P == seedRes.P && rebuilt.Unassigned == seedRes.Unassigned &&
		rebuilt.HeteroAfter > seedRes.HeteroAfter+1e-9 {
		t.Fatalf("warm construction H %.6f above seed %.6f", rebuilt.HeteroAfter, seedRes.HeteroAfter)
	}

	// Full warm solve: search resumes from the seed and only improves.
	warmCfg := cfg
	warmCfg.WarmStart = warmStart
	warmRes, err := Solve(ds, set, warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	warmLexBetterOrEqual(t, "full-solve", seedRes, warmRes)
}

// TestWarmStartPerturbedSetRepairs warm-starts under a tightened constraint
// set: the result must be fully valid under the NEW set (every region
// satisfies it — the seed is repaired, not trusted), and all the quality
// invariants of a from-scratch solve hold.
func TestWarmStartPerturbedSetRepairs(t *testing.T) {
	ds, err := census.Scaled("2k", 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Components() != 1 {
		t.Fatalf("scaled 2k has %d components; the whole-graph path needs 1", ds.Components())
	}
	var total float64
	for _, v := range ds.Column(census.AttrTotalPop) {
		total += v
	}
	setA, err := constraint.ParseSet(fmt.Sprintf("SUM(TOTALPOP) >= %d", int(total/30)))
	if err != nil {
		t.Fatal(err)
	}
	setB, err := constraint.ParseSet(fmt.Sprintf("SUM(TOTALPOP) >= %d", int(total/24)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 7}
	seedRes, err := Solve(ds, setA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warmCfg := cfg
	warmCfg.WarmStart = WarmAssignment(seedRes.Partition)
	warmRes, err := Solve(ds, setB, warmCfg)
	if err != nil {
		t.Fatalf("warm solve under perturbed set: %v", err)
	}
	if warmRes.P == 0 {
		t.Fatal("warm solve under perturbed set produced no regions")
	}
	for _, id := range warmRes.Partition.RegionIDs() {
		r := warmRes.Partition.Region(id)
		if r != nil && !r.Tracker.SatisfiedAll() {
			t.Fatalf("region %d violates the perturbed constraint set after warm repair", id)
		}
	}
	// A warm solve under a tighter bound cannot beat the cold solve's p by
	// construction magic alone, but it must be in the same league: the
	// repair pipeline must not collapse the partition.
	coldRes, err := Solve(ds, setB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warmRes.P < coldRes.P/2 {
		t.Fatalf("warm p %d collapsed vs cold p %d", warmRes.P, coldRes.P)
	}
}

// TestWarmStartIgnoredWhenMismatched pins the guard rails: a WarmStart of
// the wrong length is ignored (identical result to cold), and sharded
// solves clear it before sub-solves (identical result with or without it).
func TestWarmStartIgnoredWhenMismatched(t *testing.T) {
	ds, err := census.Scaled("2k", 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Components() != 1 {
		t.Fatalf("scaled 2k has %d components; the whole-graph path needs 1", ds.Components())
	}
	var total float64
	for _, v := range ds.Column(census.AttrTotalPop) {
		total += v
	}
	set, err := constraint.ParseSet(fmt.Sprintf("SUM(TOTALPOP) >= %d", int(total/30)))
	if err != nil {
		t.Fatal(err)
	}
	assertSame := func(label string, a, b *Result) {
		t.Helper()
		if a.P != b.P || a.Unassigned != b.Unassigned || a.HeteroAfter != b.HeteroAfter {
			t.Fatalf("%s: results differ: p %d/%d unassigned %d/%d H %.6f/%.6f",
				label, a.P, b.P, a.Unassigned, b.Unassigned, a.HeteroAfter, b.HeteroAfter)
		}
	}
	// Wrong length → ignored wholesale.
	cold, err := Solve(ds, set, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	short, err := Solve(ds, set, Config{Seed: 3, WarmStart: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	assertSame("wrong-length", cold, short)

	// Sharded path (multi-component dataset): WarmStart must not leak into
	// the per-component sub-solves with their shard-local area ids.
	multi, err := census.Scaled("10k", 0.06, 1)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Components() < 2 {
		t.Skipf("scaled 10k has %d components, need >= 2", multi.Components())
	}
	var mtotal float64
	for _, v := range multi.Column(census.AttrTotalPop) {
		mtotal += v
	}
	mset, err := constraint.ParseSet(fmt.Sprintf("SUM(TOTALPOP) >= %d", int(mtotal/30)))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Solve(multi, mset, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	warm := make([]int, multi.N()) // all label 0: nonsense if it leaked
	warmed, err := Solve(multi, mset, Config{Seed: 3, WarmStart: warm})
	if err != nil {
		t.Fatal(err)
	}
	assertSame("sharded", plain, warmed)
}
