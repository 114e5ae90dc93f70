package shard

import (
	"encoding/binary"
	"math"
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

// checkCutPlan asserts what every cut plan promises: each area lands in
// exactly one shard and the index maps agree, each shard is connected,
// there are at most max(k, components) shards, and CutEdges lists exactly
// the severed adjacencies as ascending (u, v) pairs with u < v.
func checkCutPlan(t testing.TB, ds *data.Dataset, plan *Plan, k int) {
	t.Helper()
	if limit := max(k, ds.Components()); len(plan.Shards) > limit {
		t.Fatalf("k=%d: %d shards, want at most %d", k, len(plan.Shards), limit)
	}
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
		if got := s.Dataset.Components(); got != 1 {
			t.Errorf("k=%d shard %d: %d components, want 1", k, c, got)
		}
	}
	for a, c := range seen {
		if c != 1 {
			t.Fatalf("k=%d: area %d appears in %d shards", k, a, c)
		}
	}
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
		checkCutPlan(t, ds, plan, k)

		// Balance: parts stay within a constant factor of ideal (the
		// refinement bounds allow 1.3x; the connectivity fix-up can shift a
		// little more, so assert the looser 2x / 0.25x envelope).
		ideal := float64(ds.N()) / float64(k)
		for c, s := range plan.Shards {
			if n := float64(s.Dataset.N()); n > 2*ideal || n < 0.25*ideal {
				t.Errorf("k=%d shard %d: %d areas, ideal %.0f", k, c, s.Dataset.N(), ideal)
			}
		}
	}
}

// fuzzCutDataset builds a dataset of 1 + n%24 areas from fuzz bytes: each
// byte pair of edges joins two areas (self-loops and repeats dropped), and
// each 8 bytes of vals is one area's dissimilarity, with NaN and ±Inf read
// as 0 (datasets reject them) and missing values 0.
func fuzzCutDataset(t testing.TB, n uint8, edges, vals []byte) *data.Dataset {
	t.Helper()
	size := 1 + int(n)%24
	var linked [24][24]bool
	adj := make([][]int, size)
	for i := 0; i+1 < len(edges); i += 2 {
		u, v := int(edges[i])%size, int(edges[i+1])%size
		if u == v || linked[u][v] {
			continue
		}
		linked[u][v], linked[v][u] = true, true
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	ds, err := data.New("fuzz", adj)
	if err != nil {
		t.Fatal(err)
	}
	d := make([]float64, size)
	for i := range d {
		if 8*i+8 > len(vals) {
			break
		}
		if v := math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:])); !math.IsNaN(v) && !math.IsInf(v, 0) {
			d[i] = v
		}
	}
	if err := ds.AddColumn("D", d); err != nil {
		t.Fatal(err)
	}
	ds.Dissimilarity = "D"
	return ds
}

// float64Bytes encodes dissimilarity values the way fuzzCutDataset reads
// them.
func float64Bytes(vs ...float64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// TestNewCutPlanZeroWeightSeams: a dissimilarity gap that overflows to +Inf
// gives its edge similarity weight 0. Here every edge weighs 0, so the
// connectivity pass must merge pieces that share no weight; it used to pick
// no merge target and index a label slice at -1.
func TestNewCutPlanZeroWeightSeams(t *testing.T) {
	ds := fuzzCutDataset(t, 4, []byte{0, 2, 1, 2, 1, 3}, float64Bytes(1e308, 1e308, -1e308, -1e308))
	plan, err := NewCutPlan(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkCutPlan(t, ds, plan, 2)
	if len(plan.Shards) != 2 {
		t.Errorf("got %d shards, want 2", len(plan.Shards))
	}
}

// FuzzNewCutPlan cuts fuzzed graphs of up to 24 areas with finite fuzzed
// dissimilarities into k in [2, 8] parts and checks every plan invariant.
func FuzzNewCutPlan(f *testing.F) {
	f.Add(uint8(4), []byte{0, 2, 1, 2, 1, 3}, float64Bytes(1e308, 1e308, -1e308, -1e308), uint8(0))
	f.Add(uint8(9), []byte{0, 1, 1, 2, 3, 4, 4, 5, 6, 7, 7, 8, 0, 3, 3, 6, 1, 4, 4, 7, 2, 5, 5, 8},
		float64Bytes(1, 2, 3, 4, 5, 6, 7, 8, 9), uint8(1))
	f.Add(uint8(12), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, []byte{}, uint8(6))
	f.Fuzz(func(t *testing.T, n uint8, edges, vals []byte, k uint8) {
		ds := fuzzCutDataset(t, n, edges, vals)
		parts := 2 + int(k)%7
		plan, err := NewCutPlan(ds, parts)
		if err != nil {
			t.Fatal(err)
		}
		checkCutPlan(t, ds, plan, parts)
	})
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
	checkCutPlan(t, ds, plan, 2)
	if len(plan.CutEdges) != 0 && len(plan.Shards) == 3 {
		t.Errorf("component-aligned split severed %d edges", len(plan.CutEdges))
	}
}
