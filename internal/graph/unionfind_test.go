package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Sets() != 5 {
		t.Fatalf("Sets = %d", uf.Sets())
	}
	if !uf.Union(0, 1) {
		t.Error("first union should merge")
	}
	if uf.Union(1, 0) {
		t.Error("repeat union should not merge")
	}
	if !uf.Connected(0, 1) || uf.Connected(0, 2) {
		t.Error("connectivity wrong")
	}
	uf.Union(2, 3)
	uf.Union(0, 3)
	if uf.Sets() != 2 {
		t.Errorf("Sets = %d, want 2", uf.Sets())
	}
	if !uf.Connected(1, 2) {
		t.Error("transitive connectivity lost")
	}
}

// Property: union-find connectivity agrees with BFS on the same edge set.
func TestUnionFindMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(15)
		b := newBuilder(n)
		uf := NewUnionFind(n)
		for e := 0; e < n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			b.add(u, v)
			if u != v {
				uf.Union(u, v)
			}
		}
		comp, _ := b.graph().Components()
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if (comp[a] == comp[b]) != uf.Connected(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMinimumSpanningForest(t *testing.T) {
	// Square with a diagonal-ish weight structure:
	// edges: 0-1 (w1), 1-2 (w4), 2-3 (w1), 3-0 (w2).
	b := newBuilder(4)
	b.add(0, 1)
	b.add(1, 2)
	b.add(2, 3)
	b.add(3, 0)
	g := b.graph()
	weights := map[[2]int]float64{
		{0, 1}: 1, {1, 2}: 4, {2, 3}: 1, {0, 3}: 2,
	}
	wf := func(u, v int) float64 {
		if u > v {
			u, v = v, u
		}
		return weights[[2]int{u, v}]
	}
	mst := g.MinimumSpanningForest(wf)
	if len(mst) != 3 {
		t.Fatalf("MST has %d edges, want 3", len(mst))
	}
	var total float64
	for _, e := range mst {
		total += e.Weight
	}
	if total != 4 { // 1 + 1 + 2
		t.Errorf("MST weight = %v, want 4", total)
	}
}

func TestMinimumSpanningForestDisconnected(t *testing.T) {
	b := newBuilder(4)
	b.add(0, 1)
	b.add(2, 3)
	mst := b.graph().MinimumSpanningForest(func(u, v int) float64 { return 1 })
	if len(mst) != 2 {
		t.Errorf("forest has %d edges, want 2", len(mst))
	}
}

// Property: a spanning forest of a connected graph has n-1 edges and
// connects all vertices.
func TestSpanningForestProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		b := newBuilder(n)
		for v := 1; v < n; v++ {
			b.add(v, rng.Intn(v)) // connected by construction
		}
		for e := 0; e < n; e++ {
			b.add(rng.Intn(n), rng.Intn(n))
		}
		mst := b.graph().MinimumSpanningForest(func(u, v int) float64 { return rng.Float64() })
		if len(mst) != n-1 {
			return false
		}
		uf := NewUnionFind(n)
		for _, e := range mst {
			if !uf.Union(e.U, e.V) {
				return false // cycle in "tree"
			}
		}
		return uf.Sets() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
