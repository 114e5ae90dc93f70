package region

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// eagerRanksRef is the rank order the kernel used to build with every
// Shared: an index sort.Slice per column, ascending value, ties by area id.
// It is the reference rankColumns is checked against.
func eagerRanksRef(dis [][]float64) [][]int32 {
	n := 0
	if len(dis) > 0 {
		n = len(dis[0])
	}
	rank := make([][]int32, len(dis))
	order := make([]int, n)
	for ai, col := range dis {
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(x, y int) bool {
			if col[order[x]] != col[order[y]] {
				return col[order[x]] < col[order[y]]
			}
			return order[x] < order[y]
		})
		r := make([]int32, n)
		for pos, area := range order {
			r[area] = int32(pos)
		}
		rank[ai] = r
	}
	return rank
}

// TestRankColumnsMatchesEagerSort checks the typed (value, id) sort against
// the index sort it replaced, on columns with heavy ties, signed zeros,
// negatives and extreme magnitudes.
func TestRankColumnsMatchesEagerSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	negZero := math.Copysign(0, -1)
	cols := []struct {
		name string
		gen  func() float64
	}{
		{"distinct", func() float64 { return rng.NormFloat64() * 1e3 }},
		{"ties", func() float64 { return float64(rng.Intn(5)) }},
		{"signed0", func() float64 { return []float64{0, negZero, 1, -1}[rng.Intn(4)] }},
		{"constant", func() float64 { return 2.5 }},
		{"magnitude", func() float64 {
			return []float64{-math.MaxFloat64, math.SmallestNonzeroFloat64, math.MaxFloat64, 0}[rng.Intn(4)]
		}},
		{"rounded", func() float64 { return math.Round(rng.NormFloat64()*3) / 2 }},
	}
	for _, n := range []int{0, 1, 2, 17, 1000} {
		for _, c := range cols {
			dis := [][]float64{make([]float64, n), make([]float64, n)}
			for i := 0; i < n; i++ {
				dis[0][i] = c.gen()
				dis[1][i] = -dis[0][i]
			}
			if got, want := rankColumns(dis, n), eagerRanksRef(dis); !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d %s: ranks differ from the eager sort", n, c.name)
			}
		}
	}
}

// TestRanksBuiltOnFirstFenwick checks that a partition defers the rank
// build until a region reaches the Fenwick threshold.
func TestRanksBuiltOnFirstFenwick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dis := make([]float64, 144)
	for i := range dis {
		dis[i] = float64(rng.Intn(9))
	}
	p := gridPartition(t, 12, 12, dis, true)
	k := p.krn
	r := p.NewRegion()
	for a := 0; a < k.minFen-1; a++ {
		p.AddArea(r.ID, a)
	}
	if k.rank != nil {
		t.Fatalf("ranks built with %d members, below the threshold %d", r.Size(), k.minFen)
	}
	p.AddArea(r.ID, k.minFen-1)
	if k.rank == nil || r.fen == nil {
		t.Fatal("ranks not built at the first Fenwick build")
	}
	if !reflect.DeepEqual(k.rank, eagerRanksRef(k.vals)) {
		t.Fatal("lazily built ranks differ from the eager sort")
	}
}
