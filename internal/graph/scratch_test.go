package graph

import (
	"math/rand"
	"testing"
)

// randomGraph builds a connected-ish random graph on n vertices: a random
// spanning path plus extra random edges.
func randomGraph(rng *rand.Rand, n int, extra int) *Graph {
	b := newBuilder(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.add(perm[i-1], perm[i])
	}
	for i := 0; i < extra; i++ {
		b.add(rng.Intn(n), rng.Intn(n))
	}
	return b.graph()
}

func randomSubset(rng *rand.Rand, n, k int) []int {
	perm := rng.Perm(n)
	return perm[:k]
}

func TestScratchConnectivityMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(2*n))
		sc := g.NewScratch()
		members := randomSubset(rng, n, 1+rng.Intn(n))
		removed := members[rng.Intn(len(members))]
		if got, want := g.ConnectedSubsetExcludingScratch(sc, members, removed),
			g.ConnectedSubsetExcluding(members, removed); got != want {
			t.Fatalf("trial %d: ConnectedSubsetExcludingScratch = %v, want %v (members %v - %d)",
				trial, got, want, members, removed)
		}
	}
}

func TestScratchReuseAcrossQueries(t *testing.T) {
	// The same scratch must give correct answers across many different
	// subsets (stamp reset, no residue).
	g := pathGraph(6)
	sc := g.NewScratch()
	cases := []struct {
		members []int
		removed int
		want    bool
	}{
		{[]int{0, 1, 2}, 1, false}, // path split
		{[]int{0, 1, 2}, 0, true},
		{[]int{3, 4, 5}, 5, true},
		{[]int{0, 1, 2, 3, 4, 5}, 3, false},
		{[]int{2}, 2, true}, // single member removal empties
	}
	for i, c := range cases {
		if got := g.ConnectedSubsetExcludingScratch(sc, c.members, c.removed); got != c.want {
			t.Errorf("case %d: got %v want %v", i, got, c.want)
		}
	}
}

func TestSubsetArticulationMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(28)
		g := randomGraph(rng, n, rng.Intn(2*n))
		sc := g.NewScratch()
		members := randomSubset(rng, n, 1+rng.Intn(n))
		art := g.SubsetArticulation(sc, members)
		for i, m := range members {
			// m is an articulation point of the induced subgraph iff the
			// subset minus m is disconnected.
			want := !g.ConnectedSubsetExcluding(members, m)
			// ConnectedSubsetExcluding treats the whole-subset
			// connectivity per remaining vertices; a disconnected input
			// subset reports disconnected without m being the cause, so
			// restrict to m's induced component for the oracle.
			comp := inducedComponent(g, members, m)
			want = !g.ConnectedSubsetExcluding(comp, m)
			if art[i] != want {
				t.Fatalf("trial %d: member %d articulation = %v, want %v (members %v)",
					trial, m, art[i], want, members)
			}
		}
	}
}

// inducedComponent returns the members of m's connected component within the
// induced subgraph on members.
func inducedComponent(g *Graph, members []int, m int) []int {
	in := make(map[int]bool, len(members))
	for _, v := range members {
		in[v] = true
	}
	seen := map[int]bool{m: true}
	queue := []int{m}
	comp := []int{m}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, v32 := range g.Neighbors(u) {
			v := int(v32)
			if in[v] && !seen[v] {
				seen[v] = true
				comp = append(comp, v)
				queue = append(queue, v)
			}
		}
	}
	return comp
}

func TestSubsetArticulationSmall(t *testing.T) {
	g := pathGraph(4)
	sc := g.NewScratch()
	// Path 0-1-2-3: interior vertices articulate.
	art := g.SubsetArticulation(sc, []int{0, 1, 2, 3})
	want := []bool{false, true, true, false}
	for i := range want {
		if art[i] != want[i] {
			t.Errorf("path art[%d] = %v, want %v", i, art[i], want[i])
		}
	}
	// K2 and K1: never articulation.
	for _, members := range [][]int{{1, 2}, {2}} {
		art := g.SubsetArticulation(sc, members)
		for i, a := range art {
			if a {
				t.Errorf("members %v: art[%d] unexpectedly true", members, i)
			}
		}
	}
}
