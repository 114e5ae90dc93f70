package geom

import (
	"math/rand"
	"testing"
)

func benchLattice(n int) []Polygon {
	rng := rand.New(rand.NewSource(1))
	side := 1
	for side*side < n {
		side++
	}
	return Lattice(LatticeOptions{Cols: side, Rows: side, Cells: n, Jitter: 0.25, Rng: rng})
}

// BenchmarkRookAdjacency measures contiguity extraction, the operation that
// replaces the paper's QGIS spatial join.
func BenchmarkRookAdjacency(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		polys := benchLattice(n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if adj := Adjacency(polys, Rook); len(adj) != n {
					b.Fatal("bad adjacency")
				}
			}
		})
	}
}

func BenchmarkQueenAdjacency(b *testing.B) {
	polys := benchLattice(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if adj := Adjacency(polys, Queen); len(adj) != 5000 {
			b.Fatal("bad adjacency")
		}
	}
}

func BenchmarkPolygonCentroid(b *testing.B) {
	polys := benchLattice(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, pg := range polys {
			_ = pg.Centroid()
		}
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1000 && n%1000 == 0:
		return itoa(n/1000) + "k"
	default:
		return itoa(n)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
