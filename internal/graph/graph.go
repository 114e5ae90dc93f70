// Package graph provides the contiguity-graph substrate for EMP.
//
// A regionalization instance is a graph whose vertices are areas and whose
// edges encode spatial contiguity. FaCT needs connected components (the
// EMP formulation, unlike MP-regions, supports multiple components),
// neighbor queries during region growing, and fast "is this region still
// connected if we remove this area" checks during swaps and local search.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// Graph is an undirected graph over vertices 0..N-1 stored in CSR
// (compressed sparse row) layout: one flat int32 neighbor arena plus per
// vertex offsets. Neighbor lists of all vertices are contiguous in memory,
// so the traversal-heavy hot paths (BFS connectivity, articulation passes,
// candidate enumeration in the Tabu search) walk a single cache-friendly
// array instead of chasing one heap object per vertex. A Graph is immutable
// once built, so it is safe for concurrent use. The zero value is an empty
// graph.
type Graph struct {
	n int
	// off/arena are the CSR form: the neighbors of u are
	// arena[off[u]:off[u+1]], in the order FromAdjacency received them.
	off   []int32
	arena []int32
}

// FromAdjacency builds the CSR form from adjacency lists, preserving the
// per-vertex neighbor order (several consumers rely on deterministic
// neighbor iteration). It is the only constructor: every id is checked
// against n = len(adj) before its int32 conversion, so an out-of-range id is
// an error instead of a silently wrapped neighbor. Symmetry, self-loops and
// duplicates are left to Validate. The lists are read once and not retained.
func FromAdjacency(adj [][]int) (*Graph, error) {
	n := len(adj)
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d vertices exceed the int32 id space", n)
	}
	total := 0
	for _, nbs := range adj {
		total += len(nbs)
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d neighbor entries exceed the int32 offset space", total)
	}
	g := &Graph{n: n, off: make([]int32, n+1), arena: make([]int32, total)}
	i := 0
	for u, nbs := range adj {
		for _, v := range nbs {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", u, v)
			}
			g.arena[i] = int32(v)
			i++
		}
		g.off[u+1] = int32(i)
	}
	return g, nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n {
		return false
	}
	for _, w := range g.Neighbors(u) {
		if int(w) == v {
			return true
		}
	}
	return false
}

// Neighbors returns the neighbor list of u as a subslice of the CSR arena.
// The caller must not modify it.
func (g *Graph) Neighbors(u int) []int32 {
	return g.arena[g.off[u]:g.off[u+1]]
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	return int(g.off[u+1] - g.off[u])
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	return len(g.arena) / 2
}

// Validate checks that the adjacency is symmetric and free of self-loops and
// duplicates; FromAdjacency has already range-checked every id. Decoders of
// outside input run it; builders whose lists are symmetric by construction
// (polygon contiguity, subsets) skip it. It compares each list with the
// transpose, so it runs in O(n + edges) even when one vertex lists most of
// the others.
func (g *Graph) Validate() error {
	// The transpose: tr[toff[v]:toff[v+1]] holds the vertices whose lists
	// name v.
	toff := make([]int32, g.n+1)
	for _, v := range g.arena {
		toff[v+1]++
	}
	for v := 0; v < g.n; v++ {
		toff[v+1] += toff[v]
	}
	tr := make([]int32, len(g.arena))
	fill := append([]int32(nil), toff[:g.n]...)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			tr[fill[v]] = int32(u)
			fill[v]++
		}
	}
	// While u is checked, mark[v] is stamp for each v that u lists, and
	// -stamp once v is found to list u.
	mark := make([]int32, g.n)
	for u := 0; u < g.n; u++ {
		stamp := int32(u) + 1
		for _, v := range g.Neighbors(u) {
			if int(v) == u {
				return fmt.Errorf("graph: vertex %d has a self-loop", u)
			}
			mark[v] = stamp
		}
		// Every vertex that lists u must be listed by u, and list u once.
		for _, w := range tr[toff[u]:toff[u+1]] {
			switch mark[w] {
			case stamp:
				mark[w] = -stamp
			case -stamp:
				return fmt.Errorf("graph: vertex %d lists neighbor %d twice", w, u)
			default:
				return fmt.Errorf("graph: edge %d->%d is not symmetric", w, u)
			}
		}
	}
	return nil
}

// Components returns the connected components as a component id per vertex
// plus the number of components. Component ids are dense, assigned in
// order of lowest-numbered member vertex.
func (g *Graph) Components() (comp []int, count int) {
	n := g.n
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = count
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.arena[g.off[u]:g.off[u+1]] {
				if comp[v] < 0 {
					comp[v] = count
					queue = append(queue, int(v))
				}
			}
		}
		count++
	}
	return comp, count
}

// ComponentMembers groups vertices by component id.
func (g *Graph) ComponentMembers() [][]int {
	_, members := g.ComponentSlices()
	return members
}

// ComponentSlices returns the component id per vertex together with the
// member lists grouped per component (ascending within each component), in
// one traversal. Callers that remap indices in both directions — such as the
// shard planner, which needs old->component and component->old maps — get
// both views without running the BFS twice. Component ids are dense,
// assigned in order of lowest-numbered member vertex, so the member lists
// are a stable, deterministic decomposition of 0..N-1.
func (g *Graph) ComponentSlices() (comp []int, members [][]int) {
	var count int
	comp, count = g.Components()
	members = make([][]int, count)
	sizes := make([]int, count)
	for _, c := range comp {
		sizes[c]++
	}
	for c, sz := range sizes {
		members[c] = make([]int, 0, sz)
	}
	for v, c := range comp {
		members[c] = append(members[c], v)
	}
	return comp, members
}

// Split cuts the graph into one induced subgraph per part, reading each
// neighbor list once. members[c] lists part c's vertices in local-id order,
// part[u] is vertex u's part and local[u] its index in members[part[u]];
// the three must agree. Edges between parts are dropped, and each
// subgraph's lists hold local ids in ascending order.
func (g *Graph) Split(part, local []int, members [][]int) []*Graph {
	subs := make([]*Graph, len(members))
	for c, ids := range members {
		deg := 0
		for _, u := range ids {
			deg += g.Degree(u)
		}
		sg := &Graph{n: len(ids), off: make([]int32, len(ids)+1), arena: make([]int32, 0, deg)}
		for i, u := range ids {
			start := len(sg.arena)
			for _, v := range g.Neighbors(u) {
				if part[v] == c {
					sg.arena = append(sg.arena, int32(local[v]))
				}
			}
			// Lists come out sorted when local ids ascend with global ids
			// and the source lists are sorted, as in every shard plan.
			if row := sg.arena[start:]; !slices.IsSorted(row) {
				slices.Sort(row)
			}
			sg.off[i+1] = int32(len(sg.arena))
		}
		subs[c] = sg
	}
	return subs
}

// ConnectedSubset reports whether the given vertex subset induces a
// connected subgraph. The empty subset is vacuously connected. members must
// contain no duplicates.
func (g *Graph) ConnectedSubset(members []int) bool {
	switch len(members) {
	case 0, 1:
		return true
	}
	in := make(map[int]bool, len(members))
	for _, v := range members {
		in[v] = true
	}
	return g.connectedWithin(members[0], in, len(members))
}

// ConnectedSubsetExcluding reports whether the subset stays connected after
// removing one member: region members minus the removed area must remain a
// single connected component. It builds two maps per call; solver code uses
// ConnectedSubsetExcludingScratch (through region.Partition.CanRemove), and
// this version remains the reference the scratch tests compare against.
func (g *Graph) ConnectedSubsetExcluding(members []int, removed int) bool {
	in := make(map[int]bool, len(members))
	start := -1
	for _, v := range members {
		if v == removed {
			continue
		}
		in[v] = true
		start = v
	}
	if len(in) <= 1 {
		return true
	}
	return g.connectedWithin(start, in, len(in))
}

// connectedWithin runs a BFS from start restricted to the `in` set and
// reports whether all `want` vertices are reached.
func (g *Graph) connectedWithin(start int, in map[int]bool, want int) bool {
	visited := make(map[int]bool, want)
	visited[start] = true
	queue := []int{start}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, v := range g.arena[g.off[u]:g.off[u+1]] {
			if in[int(v)] && !visited[int(v)] {
				visited[int(v)] = true
				queue = append(queue, int(v))
			}
		}
	}
	return len(visited) == want
}

// BFSOrder returns vertices in breadth-first order from start, restricted to
// the subset `within` when non-nil.
func (g *Graph) BFSOrder(start int, within map[int]bool) []int {
	if within != nil && !within[start] {
		return nil
	}
	visited := map[int]bool{start: true}
	order := []int{start}
	for i := 0; i < len(order); i++ {
		u := order[i]
		for _, v := range g.arena[g.off[u]:g.off[u+1]] {
			if visited[int(v)] || (within != nil && !within[int(v)]) {
				continue
			}
			visited[int(v)] = true
			order = append(order, int(v))
		}
	}
	return order
}
