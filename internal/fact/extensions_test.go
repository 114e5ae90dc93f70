package fact

import (
	"math"
	"testing"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/solvecache"
	"emp/internal/tabu"
)

func extensionFixture(t *testing.T) (*data.Dataset, constraint.Set) {
	t.Helper()
	ds, err := census.Scaled("1k", 0.15, 9)
	if err != nil {
		t.Fatal(err)
	}
	set := constraint.Set{
		constraint.AtMost(constraint.Min, census.AttrPop16Up, 3000),
		constraint.AtLeast(constraint.Sum, census.AttrTotalPop, 20000),
	}
	return ds, set
}

// TestSolveParallelMatchesSequential: the paper's future-work
// parallelization must not change results — same seed, same partition,
// regardless of worker count.
func TestSolveParallelMatchesSequential(t *testing.T) {
	ds, set := extensionFixture(t)
	seq, err := Solve(ds, set, Config{Iterations: 4, Seed: 3, SkipLocalSearch: true, Pool: solvecache.NewPool(1)})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Solve(ds, set, Config{Iterations: 4, Seed: 3, SkipLocalSearch: true, Pool: solvecache.NewPool(4)})
	if err != nil {
		t.Fatal(err)
	}
	if seq.P != par.P {
		t.Fatalf("p differs: sequential %d, parallel %d", seq.P, par.P)
	}
	if math.Abs(seq.HeteroBefore-par.HeteroBefore) > 1e-9 {
		t.Errorf("heterogeneity differs: %g vs %g", seq.HeteroBefore, par.HeteroBefore)
	}
	for a := 0; a < ds.N(); a++ {
		sa, pa := seq.Partition.Assignment(a), par.Partition.Assignment(a)
		if (sa == -1) != (pa == -1) {
			t.Fatalf("assignment differs at area %d: %d vs %d", a, sa, pa)
		}
	}
	if err := par.Partition.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSolvePoolExceedsIterations(t *testing.T) {
	ds, set := extensionFixture(t)
	res, err := Solve(ds, set, Config{Iterations: 2, Seed: 1, Pool: solvecache.NewPool(16), SkipLocalSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 2 {
		t.Errorf("Iterations = %d", res.Iterations)
	}
}

// TestSolveCompactnessObjective runs phase 3 under the spatial-compactness
// objective (Section III's alternative optimization function): the result
// must stay feasible and be at least as compact as the construction output.
func TestSolveCompactnessObjective(t *testing.T) {
	ds, set := extensionFixture(t)
	obj := tabu.NewCompactness(ds.Polygons)

	construction, err := Solve(ds, set, Config{Seed: 2, SkipLocalSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	before := obj.Total(construction.Partition)

	res, err := Solve(ds, set, Config{Seed: 2, Objective: obj})
	if err != nil {
		t.Fatal(err)
	}
	after := obj.Total(res.Partition)
	if after > before+1e-6 {
		t.Errorf("compactness worsened: %g -> %g", before, after)
	}
	if res.P != construction.P {
		t.Errorf("objective changed p: %d vs %d", res.P, construction.P)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Error(err)
	}
	if !res.Partition.AllSatisfied() {
		t.Error("constraints violated under compactness objective")
	}
}

// TestSolveAnnealLocalSearch selects the simulated-annealing phase 3.
func TestSolveAnnealLocalSearch(t *testing.T) {
	ds, set := extensionFixture(t)
	res, err := Solve(ds, set, Config{Seed: 4, LocalSearch: LocalSearchAnneal})
	if err != nil {
		t.Fatal(err)
	}
	if res.HeteroAfter > res.HeteroBefore+1e-9 {
		t.Errorf("annealing worsened H: %g -> %g", res.HeteroBefore, res.HeteroAfter)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Error(err)
	}
	if !res.Partition.AllSatisfied() {
		t.Error("constraints violated after annealing")
	}
	if res.LocalSearchTime <= 0 {
		t.Error("local search time not recorded")
	}
}

func TestLocalSearchString(t *testing.T) {
	if LocalSearchTabu.String() != "tabu" || LocalSearchAnneal.String() != "anneal" {
		t.Error("local search names wrong")
	}
	if LocalSearch(7).String() != "LocalSearch(7)" {
		t.Error("unknown local search string")
	}
}

// TestSolveMultivariateHeterogeneity: H(P) over several z-scaled
// dissimilarity attributes, the "balancing multiple criteria" extension of
// Section III. The local search must still only improve.
func TestSolveMultivariateHeterogeneity(t *testing.T) {
	ds, set := extensionFixture(t)
	ds.DissimilarityAttrs = []string{census.AttrHouseholds, census.AttrIncome}
	res, err := Solve(ds, set, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.HeteroAfter > res.HeteroBefore+1e-9 {
		t.Errorf("multivariate H worsened: %g -> %g", res.HeteroBefore, res.HeteroAfter)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
	if !res.Partition.AllSatisfied() {
		t.Error("constraints violated")
	}
	// Multivariate H differs from the single-attribute H.
	ds2, set2 := extensionFixture(t)
	single, err := Solve(ds2, set2, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if single.HeteroBefore == res.HeteroBefore {
		t.Error("multivariate H identical to single-attribute H; scaling not applied?")
	}
}

// TestSolveDeterministic: identical seeds produce identical partitions,
// byte for byte, including through the local search.
func TestSolveDeterministic(t *testing.T) {
	ds, set := extensionFixture(t)
	r1, err := Solve(ds, set, Config{Seed: 42, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Solve(ds, set, Config{Seed: 42, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.P != r2.P || r1.HeteroAfter != r2.HeteroAfter {
		t.Fatalf("nondeterministic: p %d/%d H %g/%g", r1.P, r2.P, r1.HeteroAfter, r2.HeteroAfter)
	}
	for a := 0; a < ds.N(); a++ {
		u1 := r1.Partition.Assignment(a) == -1
		u2 := r2.Partition.Assignment(a) == -1
		if u1 != u2 {
			t.Fatalf("assignment differs at %d", a)
		}
	}
	// A different seed should (almost surely) differ somewhere.
	r3, err := Solve(ds, set, Config{Seed: 43, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.P == r3.P && r1.HeteroAfter == r3.HeteroAfter && r1.HeteroBefore == r3.HeteroBefore {
		t.Log("different seeds coincided exactly; suspicious but not impossible")
	}
}

// TestSolveTwoAvgConstraints: the first AVG constraint drives region
// growing; the second is enforced by the add/merge guards. Every output
// region must satisfy both.
func TestSolveTwoAvgConstraints(t *testing.T) {
	ds, err := census.Scaled("1k", 0.12, 6)
	if err != nil {
		t.Fatal(err)
	}
	set := constraint.Set{
		constraint.New(constraint.Avg, census.AttrEmployed, 1000, 4000),
		constraint.New(constraint.Avg, census.AttrIncome, 2500, 6000),
	}
	res, err := Solve(ds, set, Config{Seed: 1, SkipLocalSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range res.Partition.RegionIDs() {
		r := res.Partition.Region(id)
		for i := range set {
			if !r.Tracker.Satisfied(i) {
				t.Fatalf("region %d violates %s (value %g)", id, set[i], r.Tracker.Value(i))
			}
		}
	}
	if err := res.Partition.Validate(); err != nil {
		t.Error(err)
	}
}

// TestSolveWeightedObjective balances heterogeneity and compactness.
func TestSolveWeightedObjective(t *testing.T) {
	ds, set := extensionFixture(t)
	comp := tabu.NewCompactness(ds.Polygons)
	w := &tabu.Weighted{
		Objectives: []tabu.Objective{tabu.Heterogeneity{}, comp},
		Weights:    []float64{1, 0.1},
	}
	res, err := Solve(ds, set, Config{Seed: 2, Objective: w})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Error(err)
	}
	if !res.Partition.AllSatisfied() {
		t.Error("constraints violated under weighted objective")
	}
}
