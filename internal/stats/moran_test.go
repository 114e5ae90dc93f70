package stats

import (
	"math"
	"math/rand"
	"testing"

	"emp/internal/graph"
)

// lists builds the contiguity graph of the given neighbor lists.
func lists(t *testing.T, adj [][]int) *graph.Graph {
	t.Helper()
	g, err := graph.FromAdjacency(adj)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// gridAdj builds rook adjacency of a cols x rows grid.
func gridAdj(t *testing.T, cols, rows int) *graph.Graph {
	n := cols * rows
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		c, r := i%cols, i/cols
		if r > 0 {
			adj[i] = append(adj[i], i-cols)
		}
		if c > 0 {
			adj[i] = append(adj[i], i-1)
		}
		if c < cols-1 {
			adj[i] = append(adj[i], i+1)
		}
		if r < rows-1 {
			adj[i] = append(adj[i], i+cols)
		}
	}
	return lists(t, adj)
}

func TestMoranIGradientPositive(t *testing.T) {
	// Smooth gradient: strong positive autocorrelation.
	cols, rows := 8, 8
	adj := gridAdj(t, cols, rows)
	x := make([]float64, cols*rows)
	for i := range x {
		x[i] = float64(i % cols) // increases left to right
	}
	i := MoranI(x, adj)
	if i < 0.5 {
		t.Errorf("gradient Moran's I = %v, want strongly positive", i)
	}
}

func TestMoranICheckerboardNegative(t *testing.T) {
	cols, rows := 8, 8
	adj := gridAdj(t, cols, rows)
	x := make([]float64, cols*rows)
	for i := range x {
		c, r := i%cols, i/cols
		x[i] = float64((c + r) % 2)
	}
	i := MoranI(x, adj)
	if i > -0.5 {
		t.Errorf("checkerboard Moran's I = %v, want strongly negative", i)
	}
}

func TestMoranIRandomNearZero(t *testing.T) {
	// Average over many random fields: the mean must approach E[I].
	cols, rows := 12, 12
	adj := gridAdj(t, cols, rows)
	var sum float64
	const trials = 40
	for s := 0; s < trials; s++ {
		rng := rand.New(rand.NewSource(int64(s)))
		x := make([]float64, cols*rows)
		for i := range x {
			x[i] = rng.Float64()
		}
		sum += MoranI(x, adj)
	}
	mean := sum / trials
	e := -1 / float64(cols*rows-1)
	if math.Abs(mean-e) > 0.05 {
		t.Errorf("mean random Moran's I = %v, want near E[I] = %v", mean, e)
	}
}

func TestMoranDegenerate(t *testing.T) {
	if MoranI(nil, lists(t, nil)) != 0 {
		t.Error("empty input should be 0")
	}
	if MoranI([]float64{1}, lists(t, [][]int{{}})) != 0 {
		t.Error("single value should be 0")
	}
	// Constant field: zero variance.
	adj := gridAdj(t, 3, 3)
	x := make([]float64, 9)
	if MoranI(x, adj) != 0 {
		t.Error("constant field should be 0")
	}
	if MoranI([]float64{1, 2, 3}, lists(t, [][]int{{}, {}, {}})) != 0 {
		t.Error("no edges should be 0")
	}
	if MoranI([]float64{1, 2, 3}, adj) != 0 {
		t.Error("a graph of another size should be 0")
	}
}

func TestJoinCountSameRegion(t *testing.T) {
	adj := gridAdj(t, 4, 1) // path 0-1-2-3
	// Assignment: {0,0,1,1}: pairs (0,1) same, (1,2) diff, (2,3) same =>
	// directed: 6 pairs, 4 same.
	got := JoinCountSameRegion([]int{0, 0, 1, 1}, adj)
	if math.Abs(got-4.0/6.0) > 1e-12 {
		t.Errorf("join count = %v, want 2/3", got)
	}
	// Unassigned areas excluded: only the (2,3) pair survives, both in
	// region 1, so the coherence is 1.
	got = JoinCountSameRegion([]int{0, -1, 1, 1}, adj)
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("join count with unassigned = %v, want 1", got)
	}
	if JoinCountSameRegion(nil, adj) != 0 {
		t.Error("empty assignment should be 0")
	}
}
