package geom

import "math/rand"

// LatticeOptions configures synthetic polygon lattice generation.
type LatticeOptions struct {
	// Cols and Rows give the lattice dimensions; Cols*Rows cells are
	// produced (possibly trimmed by Cells).
	Cols, Rows int
	// Cells, when positive, trims the lattice to the first Cells cells in
	// row-major order so that arbitrary area counts are possible.
	Cells int
	// CellSize is the edge length of an unperturbed cell. Zero means 1.
	CellSize float64
	// Jitter perturbs interior lattice vertices by up to Jitter*CellSize
	// in each axis, turning the square grid into an irregular mesh like
	// real tract boundaries. Shared borders stay shared because the
	// perturbation is applied to the lattice vertices, not per polygon.
	Jitter float64
	// Rng drives the jitter. Nil means no jitter regardless of Jitter.
	Rng *rand.Rand
	// OriginX and OriginY translate the whole lattice.
	OriginX, OriginY float64
}

// Lattice builds a grid of quadrilateral polygons with optionally jittered
// interior vertices. Cell (c, r) is polygon index r*Cols + c. The polygons
// tile the plane exactly: neighbors share full edges, so rook adjacency of
// the result equals 4-neighborhood of the grid. The rings are cut from one
// backing array, each capped at its four vertices.
func Lattice(opt LatticeOptions) []Polygon {
	cols, rows := opt.Cols, opt.Rows
	if cols <= 0 || rows <= 0 {
		return nil
	}
	size := opt.CellSize
	if size <= 0 {
		size = 1
	}
	// Vertex grid (cols+1) x (rows+1), row-major, jittered in the interior
	// only so the overall tile stays rectangular.
	w := cols + 1
	vx := make([]Point, w*(rows+1))
	for r := 0; r <= rows; r++ {
		for c := 0; c <= cols; c++ {
			p := Point{opt.OriginX + float64(c)*size, opt.OriginY + float64(r)*size}
			if opt.Rng != nil && opt.Jitter > 0 && r > 0 && r < rows && c > 0 && c < cols {
				p.X += (opt.Rng.Float64()*2 - 1) * opt.Jitter * size
				p.Y += (opt.Rng.Float64()*2 - 1) * opt.Jitter * size
			}
			vx[r*w+c] = p
		}
	}
	total := cols * rows
	if opt.Cells > 0 && opt.Cells < total {
		total = opt.Cells
	}
	polys := make([]Polygon, total)
	pts := make([]Point, 4*total)
	for i := range polys {
		c, r := i%cols, i/cols
		v := r*w + c
		// Counter-clockwise ring.
		ring := pts[4*i : 4*i+4 : 4*i+4]
		ring[0], ring[1], ring[2], ring[3] = vx[v], vx[v+1], vx[v+w+1], vx[v+w]
		polys[i] = Polygon{Outer: ring}
	}
	return polys
}

// GridNeighbors returns the expected rook adjacency of an untrimmed
// cols x rows lattice (4-neighborhood), for cross-checking the geometric
// adjacency extraction.
func GridNeighbors(cols, rows, cells int) [][]int {
	total := cols * rows
	if cells > 0 && cells < total {
		total = cells
	}
	adj := make([][]int, total)
	for i := 0; i < total; i++ {
		c, r := i%cols, i/cols
		var nb []int
		if r > 0 {
			nb = append(nb, i-cols)
		}
		if c > 0 {
			nb = append(nb, i-1)
		}
		if c < cols-1 && i+1 < total {
			nb = append(nb, i+1)
		}
		if r < rows-1 && i+cols < total {
			nb = append(nb, i+cols)
		}
		if nb == nil {
			nb = []int{}
		}
		adj[i] = nb
	}
	return adj
}
