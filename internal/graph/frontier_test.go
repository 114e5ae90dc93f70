package graph

import (
	"reflect"
	"testing"
)

// frontierGraph is a 2x3 rook grid:
//
//	0 1 2
//	3 4 5
func frontierGraph() *Graph {
	return builder{
		{1, 3}, {0, 2, 4}, {1, 5},
		{0, 4}, {1, 3, 5}, {2, 4},
	}.graph()
}

func TestCutEdges(t *testing.T) {
	g := frontierGraph()
	// Split columns {0,3} | {1,2,4,5}: two severed edges.
	label := []int32{0, 1, 1, 0, 1, 1}
	got := g.CutEdges(label)
	want := [][2]int32{{0, 1}, {3, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CutEdges = %v, want %v", got, want)
	}
	// Uniform labeling cuts nothing.
	if got := g.CutEdges([]int32{7, 7, 7, 7, 7, 7}); len(got) != 0 {
		t.Errorf("uniform labeling cut %v", got)
	}
	// Each vertex its own part: every edge is cut, ordered by (u, v).
	all := g.CutEdges([]int32{0, 1, 2, 3, 4, 5})
	wantAll := [][2]int32{{0, 1}, {0, 3}, {1, 2}, {1, 4}, {2, 5}, {3, 4}, {4, 5}}
	if !reflect.DeepEqual(all, wantAll) {
		t.Errorf("CutEdges = %v, want %v", all, wantAll)
	}
	// Adjacency lists need not be sorted; the order of the cut is.
	shuffled := builder{
		{3, 1}, {4, 2, 0}, {5, 1},
		{4, 0}, {5, 3, 1}, {4, 2},
	}.graph()
	if got := shuffled.CutEdges([]int32{0, 1, 2, 3, 4, 5}); !reflect.DeepEqual(got, wantAll) {
		t.Errorf("CutEdges over unsorted lists = %v, want %v", got, wantAll)
	}
}
