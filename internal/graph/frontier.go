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
