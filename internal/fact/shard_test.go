package fact

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/shard"
	"emp/internal/solvecache"
	"emp/internal/tabu"
)

// assignments extracts the full area->region-id vector.
func assignments(t *testing.T, res *Result) []int {
	t.Helper()
	if res.Partition == nil {
		t.Fatal("nil partition")
	}
	n := res.Partition.Dataset().N()
	out := make([]int, n)
	for a := 0; a < n; a++ {
		out[a] = res.Partition.Assignment(a)
	}
	return out
}

// TestShardedSequentialIdentical is the tentpole differential test: on
// multi-component census datasets the sharded pipeline must produce
// identical p, heterogeneity and area assignments no matter how many
// workers solve the shards — the merge order is the component order, a
// pure function of the adjacency, so concurrency cannot reorder output.
func TestShardedSequentialIdentical(t *testing.T) {
	cases := []struct {
		name                 string
		areas, states, comps int
		seed                 int64
		lower                float64
	}{
		{"2comp", 240, 2, 2, 11, 20000},
		{"3comp", 360, 3, 3, 12, 25000},
		{"4comp", 480, 4, 4, 13, 30000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := census.Generate(census.Options{
				Name: tc.name, Areas: tc.areas, States: tc.states,
				Components: tc.comps, Seed: tc.seed,
			})
			if err != nil {
				t.Fatalf("census: %v", err)
			}
			if got := ds.Components(); got != tc.comps {
				t.Fatalf("dataset has %d components, want %d", got, tc.comps)
			}
			set := constraint.Set{constraint.AtLeast(constraint.Sum, census.AttrTotalPop, tc.lower)}

			seq, err := Solve(ds, set, Config{Seed: 42, Pool: solvecache.NewPool(1)})
			if err != nil {
				t.Fatalf("sequential (1-worker) solve: %v", err)
			}
			par, err := Solve(ds, set, Config{Seed: 42, Pool: solvecache.NewPool(4)})
			if err != nil {
				t.Fatalf("4-worker solve: %v", err)
			}
			checkSolution(t, seq, set)
			checkSolution(t, par, set)
			if seq.Shards != tc.comps || par.Shards != tc.comps {
				t.Fatalf("Shards = %d/%d, want %d", seq.Shards, par.Shards, tc.comps)
			}
			if seq.P != par.P {
				t.Fatalf("p differs: %d vs %d", seq.P, par.P)
			}
			if seq.HeteroAfter != par.HeteroAfter {
				t.Fatalf("heterogeneity differs: %g vs %g", seq.HeteroAfter, par.HeteroAfter)
			}
			sa, pa := assignments(t, seq), assignments(t, par)
			for a := range sa {
				if sa[a] != pa[a] {
					t.Fatalf("area %d assigned to region %d sequentially, %d with 4 workers", a, sa[a], pa[a])
				}
			}
		})
	}
}

// TestShardedSharedPool runs two concurrent sharded multi-start solves
// through one externally supplied 1-slot pool (the server wiring). Each
// component sub-solve holds the only slot while its iterations run inline, so
// both solves must finish without deadlock and match a private-pool run
// exactly.
func TestShardedSharedPool(t *testing.T) {
	ds, err := census.Generate(census.Options{Name: "pool", Areas: 240, States: 2, Components: 2, Seed: 31})
	if err != nil {
		t.Fatalf("census: %v", err)
	}
	set := constraint.Set{constraint.AtLeast(constraint.Sum, census.AttrTotalPop, 20000)}
	cfg := Config{Seed: 5, Iterations: 2}
	private, err := Solve(ds, set, cfg)
	if err != nil {
		t.Fatalf("private-pool solve: %v", err)
	}
	cfg.Pool = solvecache.NewPool(1)
	shared := make([]*Result, 2)
	errs := make([]error, len(shared))
	var wg sync.WaitGroup
	for i := range shared {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shared[i], errs[i] = Solve(ds, set, cfg)
		}(i)
	}
	wg.Wait()
	pa := assignments(t, private)
	for i, res := range shared {
		if errs[i] != nil {
			t.Fatalf("shared-pool solve %d: %v", i, errs[i])
		}
		sa := assignments(t, res)
		for a := range sa {
			if sa[a] != pa[a] {
				t.Fatalf("solve %d: area %d differs between shared and private pool runs", i, a)
			}
		}
	}
}

// infeasibleComponentDataset builds two components where the SUM lower bound
// passes globally (total 120) but component 1 (areas 3..5, total 6) cannot
// reach it alone.
func infeasibleComponentDataset(t *testing.T) (*data.Dataset, constraint.Set) {
	t.Helper()
	ds, err := data.New("partial", [][]int{{1}, {0, 2}, {1}, {4}, {3, 5}, {4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddColumn("POP", []float64{40, 36, 38, 1, 2, 3}); err != nil {
		t.Fatalf("AddColumn: %v", err)
	}
	ds.Dissimilarity = "POP"
	return ds, constraint.Set{constraint.AtLeast(constraint.Sum, "POP", 50)}
}

// TestShardedInfeasibleComponent: a component that cannot satisfy the
// constraints contributes no regions; its areas stay unassigned, the solve
// still succeeds, and a warning explains the gap.
func TestShardedInfeasibleComponent(t *testing.T) {
	ds, set := infeasibleComponentDataset(t)
	res, err := Solve(ds, set, Config{Seed: 1})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Shards != 2 {
		t.Fatalf("Shards = %d, want 2", res.Shards)
	}
	if res.P < 1 {
		t.Fatalf("p = %d, want at least one region on the feasible component", res.P)
	}
	for a := 3; a <= 5; a++ {
		if got := res.Partition.Assignment(a); got != -1 {
			t.Errorf("area %d of the infeasible component assigned to region %d", a, got)
		}
	}
	found := false
	for _, w := range res.Warnings {
		if strings.Contains(w, "component 1") && strings.Contains(w, "infeasible") {
			found = true
		}
	}
	if !found {
		t.Errorf("no component-infeasibility warning in %v", res.Warnings)
	}
}

// TestShardedGloballyInfeasible: dataset-level hard infeasibility must still
// return ErrInfeasible with the report, without running any shard.
func TestShardedGloballyInfeasible(t *testing.T) {
	ds, _ := infeasibleComponentDataset(t)
	set := constraint.Set{constraint.AtLeast(constraint.Sum, "POP", 1e9)}
	res, err := Solve(ds, set, Config{Seed: 1})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if res == nil || res.Feasibility == nil || res.Feasibility.Feasible {
		t.Fatal("missing infeasibility report")
	}
}

// TestShardSeedDispersion: derived shard seeds must differ from each other
// and from the construction phase's seed+iteration stream.
func TestShardSeedDispersion(t *testing.T) {
	seen := map[int64]bool{}
	for _, base := range []int64{0, 1, 42, -7} {
		for i := 0; i < 8; i++ {
			s := shardSeed(base, i)
			if seen[s] {
				t.Fatalf("seed collision at base %d shard %d", base, i)
			}
			seen[s] = true
			for it := int64(0); it < 64; it++ {
				if s == base+it {
					t.Fatalf("shard seed %d collides with construction stream of base %d", s, base)
				}
			}
		}
	}
}

// TestShardedObjectiveMatchesComponentSolves: component sharding is lossless
// for every objective, not just H(P). Each component of a sharded solve must
// equal that component solved alone under its shard seed, with its objective
// built from the component's own polygons. Compactness holds one centroid
// per area of the dataset it was built from, and so does a Weighted that
// holds one; a sub-solve that did not re-index them to its shard would score
// local area k with the centroid of global area k.
func TestShardedObjectiveMatchesComponentSolves(t *testing.T) {
	ds, err := census.NamedSeeded("20k", 1)
	if err != nil {
		t.Fatal(err)
	}
	plan := shard.NewPlan(ds)
	if len(plan.Shards) < 2 {
		t.Fatalf("20k has %d components, want several", len(plan.Shards))
	}
	set := constraint.Set{constraint.AtLeast(constraint.Sum, census.AttrTotalPop, 20000)}
	// canonical relabels a partition by first occurrence, so two labelings
	// of the same partition compare equal; -1 (unassigned) stays -1.
	canonical := func(label func(a int) int, n int) []int {
		out := make([]int, n)
		seen := map[int]int{}
		for a := range out {
			l := label(a)
			if l < 0 {
				out[a] = -1
				continue
			}
			if _, ok := seen[l]; !ok {
				seen[l] = len(seen)
			}
			out[a] = seen[l]
		}
		return out
	}
	for _, tc := range []struct {
		name      string
		objective func(*data.Dataset) tabu.Objective
	}{
		{"default", func(*data.Dataset) tabu.Objective { return nil }},
		{"compactness", func(d *data.Dataset) tabu.Objective { return tabu.NewCompactness(d.Polygons) }},
		{"weighted", func(d *data.Dataset) tabu.Objective {
			return &tabu.Weighted{
				Objectives: []tabu.Objective{tabu.NewCompactness(d.Polygons), tabu.Heterogeneity{}},
				Weights:    []float64{1, 1},
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			whole, err := Solve(ds, set, Config{Seed: 1, Objective: tc.objective(ds)})
			if err != nil {
				t.Fatal(err)
			}
			for i, sh := range plan.Shards {
				alone, err := Solve(sh.Dataset, set, Config{Seed: shardSeed(1, i), Objective: tc.objective(sh.Dataset)})
				if err != nil {
					t.Fatalf("component %d alone: %v", i, err)
				}
				n := sh.Dataset.N()
				got := canonical(func(a int) int { return whole.Partition.Assignment(sh.GlobalIDs[a]) }, n)
				want := canonical(alone.Partition.Assignment, n)
				if !slices.Equal(got, want) {
					t.Errorf("component %d (%d areas): sharded solve differs from the component solved alone", i, n)
				}
			}
		})
	}
}
