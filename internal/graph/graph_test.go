package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// builder accumulates undirected edges as neighbor lists in insertion
// order for FromAdjacency, ignoring self-loops and repeated edges.
type builder [][]int

func newBuilder(n int) builder { return make(builder, n) }

func (b builder) add(u, v int) {
	if u == v || slices.Contains(b[u], v) {
		return
	}
	b[u] = append(b[u], v)
	b[v] = append(b[v], u)
}

func (b builder) graph() *Graph {
	g, err := FromAdjacency(b)
	if err != nil {
		panic(err)
	}
	return g
}

// pathGraph returns 0-1-2-...-n-1.
func pathGraph(n int) *Graph {
	b := newBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.add(i, i+1)
	}
	return b.graph()
}

// gridGraph returns a cols x rows rook lattice.
func gridGraph(cols, rows int) *Graph {
	b := newBuilder(cols * rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			if c+1 < cols {
				b.add(i, i+1)
			}
			if r+1 < rows {
				b.add(i, i+cols)
			}
		}
	}
	return b.graph()
}

func TestFromAdjacencyBasics(t *testing.T) {
	g, err := FromAdjacency([][]int{{1}, {0}, nil})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.NumEdges() != 1 {
		t.Errorf("N = %d, NumEdges = %d, want 3 and 1", g.N(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge (0,1) missing")
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge (0,2)")
	}
	if g.HasEdge(-5, 0) || g.HasEdge(17, 0) {
		t.Error("HasEdge out of range should be false")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Error("degrees wrong")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateCatchesBadLists(t *testing.T) {
	tests := []struct {
		name string
		adj  [][]int
	}{
		{"asymmetric", [][]int{{1}, {}}},
		{"self loop", [][]int{{0}}},
		{"out of range", [][]int{{5}}},
		{"duplicate", [][]int{{1, 1}, {0, 0}}},
		// 4294967296 is 0 once truncated to int32, which would make this
		// list the symmetric [[1],[0],[3],[2]].
		{"wraps to zero", [][]int{{1}, {4294967296}, {3}, {2}}},
		{"negative", [][]int{{-1}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g, err := FromAdjacency(tc.adj)
			if err == nil {
				err = g.Validate()
			}
			if err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

// validateNaive is the reference Validate: a per-vertex seen set and a
// HasEdge scan per edge.
func validateNaive(g *Graph) bool {
	for u := 0; u < g.N(); u++ {
		seen := map[int32]bool{}
		for _, v := range g.Neighbors(u) {
			if int(v) == u || seen[v] || !g.HasEdge(int(v), u) {
				return false
			}
			seen[v] = true
		}
	}
	return true
}

// Property: Validate accepts exactly the lists the reference accepts, on
// random lists that are mostly symmetric, with stray one-way edges,
// repeats and self-loops mixed in.
func TestValidateMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		adj := make([][]int, n)
		for e := rng.Intn(3 * n); e > 0; e-- {
			u, v := rng.Intn(n), rng.Intn(n)
			adj[u] = append(adj[u], v)
			if rng.Intn(8) != 0 {
				adj[v] = append(adj[v], u)
			}
		}
		g, err := FromAdjacency(adj)
		if err != nil {
			return false
		}
		return (g.Validate() == nil) == validateNaive(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestValidateHubIsLinear: one vertex listing 200,000 others made the
// HasEdge scan quadratic (seconds per request on a decoded dataset); the
// transpose check takes milliseconds.
func TestValidateHubIsLinear(t *testing.T) {
	const leaves = 200000
	adj := make([][]int, leaves+1)
	for v := 1; v <= leaves; v++ {
		adj[0] = append(adj[0], v)
		adj[v] = []int{0}
	}
	g, err := FromAdjacency(adj)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("Validate of a %d-leaf star took %v", leaves, el)
	}
}

func TestComponents(t *testing.T) {
	tests := []struct {
		name      string
		build     func() *Graph
		wantCount int
	}{
		{"empty", func() *Graph { return newBuilder(0).graph() }, 0},
		{"isolated", func() *Graph { return newBuilder(4).graph() }, 4},
		{"path", func() *Graph { return pathGraph(5) }, 1},
		{"two paths", func() *Graph {
			b := newBuilder(6)
			b.add(0, 1)
			b.add(1, 2)
			b.add(3, 4)
			b.add(4, 5)
			return b.graph()
		}, 2},
		{"grid", func() *Graph { return gridGraph(4, 4) }, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			comp, count := g.Components()
			if count != tc.wantCount {
				t.Fatalf("count = %d, want %d", count, tc.wantCount)
			}
			// Every edge joins same-component vertices.
			for u := 0; u < g.N(); u++ {
				for _, v := range g.Neighbors(u) {
					if comp[u] != comp[int(v)] {
						t.Errorf("edge (%d,%d) crosses components", u, v)
					}
				}
			}
			members := g.ComponentMembers()
			if len(members) != count {
				t.Errorf("ComponentMembers len = %d, want %d", len(members), count)
			}
			total := 0
			for _, m := range members {
				total += len(m)
			}
			if total != g.N() {
				t.Errorf("members cover %d vertices, want %d", total, g.N())
			}
		})
	}
}

func TestComponentIDsDense(t *testing.T) {
	b := newBuilder(5)
	b.add(3, 4)
	comp, count := b.graph().Components()
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	// ids assigned by lowest member: 0->0, 1->1, 2->2, {3,4}->3
	want := []int{0, 1, 2, 3, 3}
	for i, c := range comp {
		if c != want[i] {
			t.Errorf("comp[%d] = %d, want %d", i, c, want[i])
		}
	}
}

func TestConnectedSubset(t *testing.T) {
	g := gridGraph(3, 3)
	tests := []struct {
		name    string
		members []int
		want    bool
	}{
		{"empty", nil, true},
		{"single", []int{4}, true},
		{"row", []int{0, 1, 2}, true},
		{"L-shape", []int{0, 3, 6, 7}, true},
		{"diagonal only", []int{0, 4}, false},
		{"two corners", []int{0, 8}, false},
		{"whole grid", []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := g.ConnectedSubset(tc.members); got != tc.want {
				t.Errorf("ConnectedSubset(%v) = %v, want %v", tc.members, got, tc.want)
			}
		})
	}
}

func TestConnectedSubsetExcluding(t *testing.T) {
	g := pathGraph(5)
	all := []int{0, 1, 2, 3, 4}
	// Removing an endpoint keeps the path connected; removing the middle cuts it.
	if !g.ConnectedSubsetExcluding(all, 0) {
		t.Error("removing endpoint 0 should stay connected")
	}
	if !g.ConnectedSubsetExcluding(all, 4) {
		t.Error("removing endpoint 4 should stay connected")
	}
	if g.ConnectedSubsetExcluding(all, 2) {
		t.Error("removing middle 2 should disconnect")
	}
	if !g.ConnectedSubsetExcluding([]int{1, 2}, 1) {
		t.Error("singleton remainder is connected")
	}
	if !g.ConnectedSubsetExcluding([]int{1}, 1) {
		t.Error("empty remainder is vacuously connected")
	}
}

func TestBFSOrder(t *testing.T) {
	g := pathGraph(4)
	order := g.BFSOrder(0, nil)
	if len(order) != 4 || order[0] != 0 {
		t.Errorf("BFSOrder = %v", order)
	}
	within := map[int]bool{0: true, 1: true}
	order = g.BFSOrder(0, within)
	if len(order) != 2 {
		t.Errorf("restricted BFSOrder = %v, want 2 vertices", order)
	}
	if got := g.BFSOrder(3, within); got != nil {
		t.Errorf("BFSOrder from excluded start = %v, want nil", got)
	}
}

func TestGridEdgeCount(t *testing.T) {
	g := gridGraph(4, 3)
	// horizontal: 3 per row * 3 rows = 9; vertical: 4 per col-gap * 2 = 8
	if g.NumEdges() != 17 {
		t.Errorf("NumEdges = %d, want 17", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}
