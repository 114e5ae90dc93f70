package region

import (
	"math/rand"
	"testing"

	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/geom"
)

// benchPartition builds a cols x rows lattice split into two vertical-half
// regions, optionally with the heterogeneity kernel disabled.
func benchPartition(b *testing.B, cols, rows int, kernel bool) (*Partition, int, int, int) {
	b.Helper()
	n := cols * rows
	polys := geom.Lattice(geom.LatticeOptions{Cols: cols, Rows: rows})
	ds := data.FromPolygons("bench", polys, geom.Rook)
	rng := rand.New(rand.NewSource(1))
	dis := make([]float64, n)
	for i := range dis {
		dis[i] = rng.Float64() * 1000
	}
	if err := ds.AddColumn("D", dis); err != nil {
		b.Fatal(err)
	}
	ds.Dissimilarity = "D"
	ev, err := constraint.NewEvaluator(constraint.Set{}, ds.Column)
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewPartition(ds, ev)
	if err != nil {
		b.Fatal(err)
	}
	p.SetHeteroKernel(kernel)
	var left, right []int
	for i := 0; i < n; i++ {
		if i%cols < cols/2 {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	r1 := p.NewRegion(left...)
	r2 := p.NewRegion(right...)
	// A border area of r1 adjacent to r2.
	area := p.BorderAreasBetween(r1.ID, r2.ID)[0]
	return p, area, r1.ID, r2.ID
}

// BenchmarkHeteroDeltaMove measures the candidate-delta evaluation that
// dominates the Tabu hot path: O(attrs·log n) with the Fenwick kernel vs the
// naive O(|from| + |to|) member scan.
func BenchmarkHeteroDeltaMove(b *testing.B) {
	for _, mode := range []struct {
		name   string
		kernel bool
	}{{"kernel", true}, {"naive", false}} {
		b.Run(mode.name, func(b *testing.B) {
			p, area, _, to := benchPartition(b, 64, 64, mode.kernel)
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += p.HeteroDeltaMove(area, to)
			}
			_ = sink
		})
	}
}

// BenchmarkAddRemoveArea measures the incremental heterogeneity bookkeeping
// of one move (remove + re-add).
func BenchmarkAddRemoveArea(b *testing.B) {
	for _, mode := range []struct {
		name   string
		kernel bool
	}{{"kernel", true}, {"naive", false}} {
		b.Run(mode.name, func(b *testing.B) {
			p, area, from, to := benchPartition(b, 64, 64, mode.kernel)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.MoveArea(area, to)
				p.MoveArea(area, from)
			}
		})
	}
}

// BenchmarkCanRemove measures the donor-side contiguity check on a
// 2,048-member region. The pass leg queries right after a mutation, so each
// query runs the region's articulation pass; it also pays one move out and
// back, which BenchmarkAddRemoveArea times alone. The hit leg asks again
// with no mutation in between and reads the kept verdict.
func BenchmarkCanRemove(b *testing.B) {
	p, area, from, to := benchPartition(b, 64, 64, true)
	b.Run("pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.MoveArea(area, to)
			p.MoveArea(area, from)
			if !p.CanRemove(area) {
				b.Fatal("a border corner cannot leave")
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !p.CanRemove(area) {
				b.Fatal("a border corner cannot leave")
			}
		}
	})
}
