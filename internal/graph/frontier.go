package graph

// CutEdges returns every undirected edge whose endpoints carry different
// labels, as (u, v) pairs with u < v, ordered by (u, v) ascending. The label
// slice assigns each vertex to a part (any int32 labeling works; vertices
// with equal labels are in the same part). The result is a deterministic
// function of the adjacency and the labeling — the cut-sharding pipeline
// relies on that to make seam repair independent of solve concurrency.
func (g *Graph) CutEdges(label []int32) [][2]int32 {
	var out [][2]int32
	for u := 0; u < g.n; u++ {
		lu := label[u]
		for _, v := range g.Neighbors(u) {
			if int(v) > u && label[v] != lu {
				out = append(out, [2]int32{int32(u), v})
			}
		}
	}
	return out
}

// FrontierVertices returns the vertices incident to at least one cut edge
// under the labeling, ascending. This is the stitch-seam frontier: the only
// vertices whose region assignment can differ from a whole-graph solve
// because of a cut, and therefore the natural restriction set for the
// boundary-repair pass.
func (g *Graph) FrontierVertices(label []int32) []int32 {
	seen := make([]bool, g.n)
	var out []int32
	for u := 0; u < g.n; u++ {
		lu := label[u]
		for _, v := range g.Neighbors(u) {
			if label[v] != lu {
				seen[u] = true
				if !seen[v] {
					seen[v] = true
				}
			}
		}
	}
	for u := 0; u < g.n; u++ {
		if seen[u] {
			out = append(out, int32(u))
		}
	}
	return out
}
