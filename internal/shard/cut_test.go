package shard

import (
	"reflect"
	"testing"

	"emp/internal/census"
	"emp/internal/data"
)

// cutDataset builds a single-component census dataset for partitioner tests.
func cutDataset(t *testing.T, areas int, seed int64) *data.Dataset {
	t.Helper()
	ds, err := census.Generate(census.Options{Name: "cut", Areas: areas, States: 2, Components: 1, Seed: seed})
	if err != nil {
		t.Fatalf("census: %v", err)
	}
	return ds
}

func TestNewCutPlanInvariants(t *testing.T) {
	ds := cutDataset(t, 1200, 5)
	for _, k := range []int{2, 4, 8} {
		plan, err := NewCutPlan(ds, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(plan.Shards) != k {
			t.Fatalf("k=%d: got %d shards", k, len(plan.Shards))
		}

		// Coverage: every area in exactly one shard, index maps consistent.
		seen := make([]int, ds.N())
		for c, s := range plan.Shards {
			if s.Dataset.N() != len(s.GlobalIDs) {
				t.Errorf("k=%d shard %d: dataset %d areas, %d global ids", k, c, s.Dataset.N(), len(s.GlobalIDs))
			}
			for local, global := range s.GlobalIDs {
				seen[global]++
				if plan.Component[global] != c || plan.Local[global] != local {
					t.Fatalf("k=%d: area %d maps to (%d,%d), shard says (%d,%d)",
						k, global, plan.Component[global], plan.Local[global], c, local)
				}
			}
		}
		for a, c := range seen {
			if c != 1 {
				t.Fatalf("k=%d: area %d appears in %d shards", k, a, c)
			}
		}

		// Every part internally connected.
		for c, s := range plan.Shards {
			if got := s.Dataset.Components(); got != 1 {
				t.Errorf("k=%d shard %d: %d components, want 1", k, c, got)
			}
		}

		// Balance: parts stay within a constant factor of ideal (the
		// refinement bounds allow 1.3x; the connectivity fix-up can shift a
		// little more, so assert the looser 2x / 0.25x envelope).
		ideal := float64(ds.N()) / float64(k)
		for c, s := range plan.Shards {
			if n := float64(s.Dataset.N()); n > 2*ideal || n < 0.25*ideal {
				t.Errorf("k=%d shard %d: %d areas, ideal %.0f", k, c, s.Dataset.N(), ideal)
			}
		}

		// CutEdges: sorted unique (u,v) pairs that are real severed
		// adjacencies, and complete — every cross-shard adjacency appears.
		want := 0
		for u := 0; u < ds.N(); u++ {
			for _, v := range ds.Graph().Neighbors(u) {
				if int(v) > u && plan.Component[u] != plan.Component[v] {
					want++
				}
			}
		}
		if len(plan.CutEdges) != want {
			t.Errorf("k=%d: %d cut edges, want %d", k, len(plan.CutEdges), want)
		}
		for i, e := range plan.CutEdges {
			u, v := int(e[0]), int(e[1])
			if u >= v {
				t.Fatalf("k=%d: cut edge %v not u < v", k, e)
			}
			if plan.Component[u] == plan.Component[v] {
				t.Errorf("k=%d: cut edge %v within shard %d", k, e, plan.Component[u])
			}
			if !ds.Graph().HasEdge(u, v) {
				t.Errorf("k=%d: cut edge %v is not an adjacency", k, e)
			}
			if i > 0 {
				p := plan.CutEdges[i-1]
				if p[0] > e[0] || (p[0] == e[0] && p[1] >= e[1]) {
					t.Fatalf("k=%d: cut edges out of order at %d: %v then %v", k, i, p, e)
				}
			}
		}
	}
}

// TestNewCutPlanDeterministic pins the partitioner as a pure function of
// (dataset, k): two independent runs must agree exactly.
func TestNewCutPlanDeterministic(t *testing.T) {
	ds := cutDataset(t, 900, 11)
	a, err := NewCutPlan(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCutPlan(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Component, b.Component) {
		t.Fatal("part assignment differs across runs")
	}
	if !reflect.DeepEqual(a.CutEdges, b.CutEdges) {
		t.Fatal("cut edges differ across runs")
	}
	for i := range a.Shards {
		if !reflect.DeepEqual(a.Shards[i].GlobalIDs, b.Shards[i].GlobalIDs) {
			t.Fatalf("shard %d membership differs across runs", i)
		}
	}
}

func TestNewCutPlanErrors(t *testing.T) {
	ds := cutDataset(t, 100, 3)
	if _, err := NewCutPlan(ds, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := NewCutPlan(ds, 0); err == nil {
		t.Error("k=0 accepted")
	}
	// k > n clamps instead of failing.
	plan, err := NewCutPlan(ds, 5000)
	if err != nil {
		t.Fatalf("k>n: %v", err)
	}
	if len(plan.Shards) > ds.N() {
		t.Errorf("k>n produced %d shards for %d areas", len(plan.Shards), ds.N())
	}
}

// TestNewCutPlanDisconnected: cutting a multi-component dataset keeps every
// part connected, so more components than k yields more than k shards.
func TestNewCutPlanDisconnected(t *testing.T) {
	ds, err := census.Generate(census.Options{Name: "cut3", Areas: 600, States: 3, Components: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewCutPlan(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) < 3 {
		t.Fatalf("got %d shards, want >= 3 (one per component)", len(plan.Shards))
	}
	for c, s := range plan.Shards {
		if got := s.Dataset.Components(); got != 1 {
			t.Errorf("shard %d: %d components", c, got)
		}
	}
	if len(plan.CutEdges) != 0 && len(plan.Shards) == 3 {
		t.Errorf("component-aligned split severed %d edges", len(plan.CutEdges))
	}
}
