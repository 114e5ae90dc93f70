package graph

import "testing"

func benchGrid(b *testing.B, cols, rows int) *Graph {
	b.Helper()
	return gridGraph(cols, rows)
}

// BenchmarkConnectedSubsetExcluding measures the donor-region validity
// check, the hottest graph operation in Step 3 and the local search.
func BenchmarkConnectedSubsetExcluding(b *testing.B) {
	g := benchGrid(b, 50, 50)
	members := make([]int, 0, 100)
	for i := 0; i < 100; i++ {
		members = append(members, i) // two rows of the grid
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.ConnectedSubsetExcluding(members, members[i%100])
	}
}

// BenchmarkComponents measures component labeling at census scale.
func BenchmarkComponents(b *testing.B) {
	g := benchGrid(b, 150, 150) // 22500 vertices
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, count := g.Components(); count != 1 {
			b.Fatal("bad components")
		}
	}
}
