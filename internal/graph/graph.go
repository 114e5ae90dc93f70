// Package graph provides the contiguity-graph substrate for EMP.
//
// A regionalization instance is a graph whose vertices are areas and whose
// edges encode spatial contiguity. FaCT needs connected components (the
// EMP formulation, unlike MP-regions, supports multiple components),
// neighbor queries during region growing, and fast "is this region still
// connected if we remove this area" checks during swaps and local search.
package graph

import "fmt"

// Graph is an undirected graph over vertices 0..N-1 stored in CSR
// (compressed sparse row) layout: one flat int32 neighbor arena plus per
// vertex offsets. Neighbor lists of all vertices are contiguous in memory,
// so the traversal-heavy hot paths (BFS connectivity, articulation passes,
// candidate enumeration in the Tabu search) walk a single cache-friendly
// array instead of chasing one heap object per vertex. The zero value is an
// empty graph.
//
// Edge insertion is supported for builders (MST trees, tests): AddEdge
// switches the graph into a jagged builder representation and the CSR form
// is re-frozen lazily on the next read. Frozen neighbor order always equals
// insertion order, so conversions never perturb traversal order (several
// consumers rely on deterministic neighbor iteration).
type Graph struct {
	n int
	// off/arena are the CSR form: the neighbors of u are
	// arena[off[u]:off[u+1]], in insertion order. Valid when dirty is false.
	off   []int32
	arena []int32
	// badj holds per-vertex builder lists while dirty; nil otherwise.
	badj  [][]int32
	dirty bool
}

// New creates a graph with n vertices and no edges.
func New(n int) *Graph {
	return &Graph{n: n, off: make([]int32, n+1)}
}

// FromAdjacency builds the CSR form from adjacency lists, preserving the
// per-vertex neighbor order. The lists must be symmetric and free of
// self-loops, which Validate can check; they are read once and not retained.
func FromAdjacency(adj [][]int) *Graph {
	n := len(adj)
	g := &Graph{n: n, off: make([]int32, n+1)}
	total := 0
	for u, nbs := range adj {
		total += len(nbs)
		g.off[u+1] = int32(total)
	}
	g.arena = make([]int32, total)
	i := 0
	for _, nbs := range adj {
		for _, v := range nbs {
			g.arena[i] = int32(v)
			i++
		}
	}
	return g
}

// thaw switches to the jagged builder representation for edge insertion.
func (g *Graph) thaw() {
	if g.dirty {
		return
	}
	g.badj = make([][]int32, g.n)
	for u := 0; u < g.n; u++ {
		nbs := g.arena[g.off[u]:g.off[u+1]]
		g.badj[u] = append(make([]int32, 0, len(nbs)+1), nbs...)
	}
	g.dirty = true
}

// freeze rebuilds the CSR form from the builder lists.
func (g *Graph) freeze() {
	total := 0
	for u, nbs := range g.badj {
		total += len(nbs)
		g.off[u+1] = int32(total)
	}
	if cap(g.arena) < total {
		g.arena = make([]int32, total)
	}
	g.arena = g.arena[:total]
	i := 0
	for _, nbs := range g.badj {
		i += copy(g.arena[i:], nbs)
	}
	g.badj = nil
	g.dirty = false
}

// ensure re-freezes the CSR form after edge insertions; a no-op on the hot
// path (one predictable branch).
func (g *Graph) ensure() {
	if g.dirty {
		g.freeze()
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the undirected edge (u, v). Duplicate edges and
// self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n {
		return
	}
	if g.HasEdge(u, v) {
		return
	}
	g.thaw()
	g.badj[u] = append(g.badj[u], int32(v))
	g.badj[v] = append(g.badj[v], int32(u))
}

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
// The caller must not modify it, and must not retain it across AddEdge.
func (g *Graph) Neighbors(u int) []int32 {
	if g.dirty {
		g.freeze()
	}
	return g.arena[g.off[u]:g.off[u+1]]
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	if g.dirty {
		return len(g.badj[u])
	}
	return int(g.off[u+1] - g.off[u])
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	g.ensure()
	return len(g.arena) / 2
}

// Validate checks that adjacency lists are symmetric, in range, and free of
// self-loops and duplicates.
func (g *Graph) Validate() error {
	g.ensure()
	for u := 0; u < g.n; u++ {
		nbs := g.Neighbors(u)
		seen := make(map[int32]bool, len(nbs))
		for _, v := range nbs {
			if v < 0 || int(v) >= g.n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", u, v)
			}
			if int(v) == u {
				return fmt.Errorf("graph: vertex %d has a self-loop", u)
			}
			if seen[v] {
				return fmt.Errorf("graph: vertex %d lists neighbor %d twice", u, v)
			}
			seen[v] = true
			if !g.HasEdge(int(v), u) {
				return fmt.Errorf("graph: edge %d->%d is not symmetric", u, v)
			}
		}
	}
	return nil
}

// Components returns the connected components as a component id per vertex
// plus the number of components. Component ids are dense, assigned in
// order of lowest-numbered member vertex.
func (g *Graph) Components() (comp []int, count int) {
	g.ensure()
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
	g.ensure()
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

// ArticulationPoints returns, for the whole graph, the set of vertices whose
// removal increases the number of connected components (Tarjan lowlink).
// The result is a boolean per vertex.
func (g *Graph) ArticulationPoints() []bool {
	g.ensure()
	n := g.n
	art := make([]bool, n)
	disc := make([]int, n)
	low := make([]int, n)
	parent := make([]int, n)
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
	}
	timer := 0
	// Iterative DFS to avoid deep recursion on path-like graphs.
	type frame struct {
		u, idx int
	}
	for s := 0; s < n; s++ {
		if disc[s] != -1 {
			continue
		}
		stack := []frame{{s, 0}}
		disc[s], low[s] = timer, timer
		timer++
		rootChildren := 0
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			u := f.u
			if nbs := g.arena[g.off[u]:g.off[u+1]]; f.idx < len(nbs) {
				v := int(nbs[f.idx])
				f.idx++
				if disc[v] == -1 {
					parent[v] = u
					disc[v], low[v] = timer, timer
					timer++
					if u == s {
						rootChildren++
					}
					stack = append(stack, frame{v, 0})
				} else if v != parent[u] && disc[v] < low[u] {
					low[u] = disc[v]
				}
			} else {
				stack = stack[:len(stack)-1]
				p := parent[u]
				if p != -1 {
					if low[u] < low[p] {
						low[p] = low[u]
					}
					if p != s && low[u] >= disc[p] {
						art[p] = true
					}
				}
			}
		}
		art[s] = rootChildren > 1
	}
	return art
}

// BFSOrder returns vertices in breadth-first order from start, restricted to
// the subset `within` when non-nil.
func (g *Graph) BFSOrder(start int, within map[int]bool) []int {
	g.ensure()
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
