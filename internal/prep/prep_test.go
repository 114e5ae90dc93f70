package prep

import (
	"testing"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/region"
)

// grid builds a small dataset: a 1×n path graph with one dissimilarity
// column.
func grid(t *testing.T, name string, vals []float64) *data.Dataset {
	t.Helper()
	adj := make([][]int, len(vals))
	for i := 0; i < len(vals)-1; i++ {
		adj[i] = append(adj[i], i+1)
		adj[i+1] = append(adj[i+1], i)
	}
	ds, err := data.New(name, adj)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddColumn("X", vals); err != nil {
		t.Fatal(err)
	}
	ds.Dissimilarity = "X"
	return ds
}

// TestNewRejectsUnsolvableDataset pins that preparation surfaces the same
// configuration errors a solve would hit (no dissimilarity attribute).
func TestNewRejectsUnsolvableDataset(t *testing.T) {
	ds, err := data.New("bare", [][]int{{1}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(ds); err == nil {
		t.Fatal("New accepted a dataset without a dissimilarity configuration")
	}
}

// TestPlanSubArtifacts pins the lazy component decomposition: one prepared
// sub-artifact per component, each built from the plan's sub-dataset, and
// repeated Plan calls return the same decomposition.
func TestPlanSubArtifacts(t *testing.T) {
	ds, err := census.Scaled("10k", 0.05, 1) // multi-component substrate
	if err != nil {
		t.Fatal(err)
	}
	art, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	plan, subs, err := art.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) < 2 {
		t.Fatalf("expected a multi-component plan, got %d shard(s)", len(plan.Shards))
	}
	if len(subs) != len(plan.Shards) {
		t.Fatalf("%d sub-artifacts for %d shards", len(subs), len(plan.Shards))
	}
	for i, sub := range subs {
		if sub.Dataset() != plan.Shards[i].Dataset {
			t.Errorf("sub-artifact %d prepared from the wrong dataset", i)
		}
	}
	plan2, subs2, err := art.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan2 != plan || len(subs2) != len(subs) || subs2[0] != subs[0] {
		t.Error("Plan is not memoized")
	}
}

// TestCutPlanSubArtifacts: the memoized cut decomposition mirrors Plan but
// keys on k — one build per k, sub-artifacts aligned with the plan's shards.
func TestCutPlanSubArtifacts(t *testing.T) {
	ds, err := census.Generate(census.Options{Name: "cutprep", Areas: 400, States: 2, Components: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	art, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	plan, subs, err := art.CutPlan(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) != 4 {
		t.Fatalf("got %d shards, want 4", len(plan.Shards))
	}
	if len(subs) != len(plan.Shards) {
		t.Fatalf("%d sub-artifacts for %d shards", len(subs), len(plan.Shards))
	}
	for i, sub := range subs {
		if sub.Dataset() != plan.Shards[i].Dataset {
			t.Errorf("sub-artifact %d prepared from the wrong dataset", i)
		}
	}
	plan2, subs2, err := art.CutPlan(4)
	if err != nil {
		t.Fatal(err)
	}
	if plan2 != plan || subs2[0] != subs[0] {
		t.Error("CutPlan(4) is not memoized")
	}
	other, _, err := art.CutPlan(2)
	if err != nil {
		t.Fatal(err)
	}
	if other == plan {
		t.Error("CutPlan(2) returned the k=4 plan")
	}
	if _, _, err := art.CutPlan(1); err == nil {
		t.Error("CutPlan(1) accepted")
	}
}

// TestSharedPartitionEquivalence pins that a partition built on the
// artifact's shared state behaves like one built standalone: same
// heterogeneity bookkeeping on the same moves.
func TestSharedPartitionEquivalence(t *testing.T) {
	ds := grid(t, "g", []float64{5, 1, 4, 2, 3, 6})
	art, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := constraint.NewEvaluator(constraint.Set{constraint.AtLeast(constraint.Count, "", 1)}, ds.Column)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := region.PartitionFromRegions(ds, ev, [][]int{{0, 1, 2}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := region.PartitionFromRegionsShared(art.Shared(), ev, [][]int{{0, 1, 2}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Heterogeneity() != shared.Heterogeneity() {
		t.Fatalf("H diverged: plain %v, shared %v", plain.Heterogeneity(), shared.Heterogeneity())
	}
	plain.MoveArea(2, plain.Assignment(3))
	shared.MoveArea(2, shared.Assignment(3))
	if plain.Heterogeneity() != shared.Heterogeneity() {
		t.Fatalf("H diverged after move: plain %v, shared %v", plain.Heterogeneity(), shared.Heterogeneity())
	}
}
