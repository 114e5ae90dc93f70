package graph

import (
	"math/rand"
	"slices"
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

// TestScratchConnectivityMatchesMaps: on connected subsets, the donor
// question region.Partition.CanRemove asks — does the subset stay connected
// without this member? — gets from one articulation pass the answer the
// map-based ConnectedSubsetExcluding gives, for every member, with one
// scratch reused across queries.
func TestScratchConnectivityMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(2*n))
		sc := g.NewScratch()
		for q := 0; q < 5; q++ {
			members := randomSubset(rng, n, 1+rng.Intn(n))
			art, connected := g.SubsetArticulation(sc, members)
			if !connected {
				continue
			}
			checked++
			for i, m := range members {
				if got, want := !art[i], g.ConnectedSubsetExcluding(members, m); got != want {
					t.Fatalf("trial %d: removable(%d) = %v, want %v (members %v)",
						trial, m, got, want, members)
				}
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d connected subsets drawn", checked)
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
		art, connected := g.SubsetArticulation(sc, c.members)
		if !connected {
			t.Errorf("case %d: %v reported disconnected", i, c.members)
		}
		if got := !art[slices.Index(c.members, c.removed)]; got != c.want {
			t.Errorf("case %d: got %v want %v", i, got, c.want)
		}
	}
}

// TestSubsetArticulationMatchesBruteForce checks each member's articulation
// verdict within its induced component, and the subset's connectivity
// verdict against ConnectedSubset, on random subsets of which many are
// disconnected.
func TestSubsetArticulationMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seen := map[bool]int{}
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(28)
		g := randomGraph(rng, n, rng.Intn(2*n))
		sc := g.NewScratch()
		members := randomSubset(rng, n, 1+rng.Intn(n))
		art, connected := g.SubsetArticulation(sc, members)
		if want := g.ConnectedSubset(members); connected != want {
			t.Fatalf("trial %d: connected = %v, want %v (members %v)", trial, connected, want, members)
		}
		seen[connected]++
		for i, m := range members {
			// m is an articulation point of the induced subgraph iff its
			// induced component minus m is disconnected: on a disconnected
			// subset, ConnectedSubsetExcluding over all members reports
			// disconnected without m being the cause.
			comp := inducedComponent(g, members, m)
			if want := !g.ConnectedSubsetExcluding(comp, m); art[i] != want {
				t.Fatalf("trial %d: member %d articulation = %v, want %v (members %v)",
					trial, m, art[i], want, members)
			}
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("subsets drawn: %d connected, %d disconnected; want both", seen[true], seen[false])
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
	art, _ := g.SubsetArticulation(sc, []int{0, 1, 2, 3})
	want := []bool{false, true, true, false}
	for i := range want {
		if art[i] != want[i] {
			t.Errorf("path art[%d] = %v, want %v", i, art[i], want[i])
		}
	}
	// K2, two non-adjacent vertices, K1 and the empty subset: never
	// articulation; connected unless the two vertices are apart.
	for _, c := range []struct {
		members   []int
		connected bool
	}{{[]int{1, 2}, true}, {[]int{0, 2}, false}, {[]int{2}, true}, {nil, true}} {
		art, connected := g.SubsetArticulation(sc, c.members)
		for i, a := range art {
			if a {
				t.Errorf("members %v: art[%d] unexpectedly true", c.members, i)
			}
		}
		if connected != c.connected {
			t.Errorf("members %v: connected = %v, want %v", c.members, connected, c.connected)
		}
	}
}

// FuzzSubsetArticulation decodes a graph on up to 24 vertices and a vertex
// subset, and checks the articulation pass against the map-based
// references: the connectivity verdict always equals ConnectedSubset, and on
// a connected subset each member's verdict says whether
// ConnectedSubsetExcluding fails without it. The boundary variant must give
// the same verdicts.
func FuzzSubsetArticulation(f *testing.F) {
	// A path of four with its middle pair; a triangle with a tail, whole;
	// two separate edges; one vertex; a 4-cycle with a chord.
	f.Add(uint8(4), []byte{0, 1, 1, 2, 2, 3}, uint32(0b0110))
	f.Add(uint8(4), []byte{0, 1, 1, 2, 2, 0, 2, 3}, uint32(0b1111))
	f.Add(uint8(4), []byte{0, 1, 2, 3}, uint32(0b1111))
	f.Add(uint8(1), []byte{}, uint32(1))
	f.Add(uint8(4), []byte{0, 1, 1, 2, 2, 3, 3, 0, 0, 2}, uint32(0b1111))
	f.Fuzz(func(t *testing.T, size uint8, edges []byte, mask uint32) {
		n := 1 + int(size)%24
		b := newBuilder(n)
		for i := 0; i+1 < len(edges); i += 2 {
			b.add(int(edges[i])%n, int(edges[i+1])%n)
		}
		g := b.graph()
		var members []int
		for v := 0; v < n; v++ {
			if mask>>v&1 == 1 {
				members = append(members, v)
			}
		}
		sc := g.NewScratch()
		art, connected := g.SubsetArticulation(sc, members)
		art = slices.Clone(art)
		if want := g.ConnectedSubset(members); connected != want {
			t.Fatalf("members %v of %v: connected = %v, want %v", members, b, connected, want)
		}
		if bArt, _, _ := g.SubsetArticulationBoundary(sc, members); !slices.Equal(bArt, art) {
			t.Fatalf("members %v of %v: boundary verdicts %v, plain %v", members, b, bArt, art)
		}
		if !connected {
			return
		}
		for i, m := range members {
			if want := !g.ConnectedSubsetExcluding(members, m); art[i] != want {
				t.Fatalf("members %v of %v: articulation(%d) = %v, want %v", members, b, m, art[i], want)
			}
		}
	})
}
