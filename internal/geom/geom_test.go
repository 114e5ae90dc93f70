package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func unitSquare(x, y float64) Polygon {
	return Polygon{Outer: Ring{
		{x, y}, {x + 1, y}, {x + 1, y + 1}, {x, y + 1},
	}}
}

func TestRingSignedArea(t *testing.T) {
	tests := []struct {
		name string
		ring Ring
		want float64
	}{
		{"ccw unit square", Ring{{0, 0}, {1, 0}, {1, 1}, {0, 1}}, 1},
		{"cw unit square", Ring{{0, 0}, {0, 1}, {1, 1}, {1, 0}}, -1},
		{"triangle", Ring{{0, 0}, {4, 0}, {0, 3}}, 6},
		{"degenerate 2 points", Ring{{0, 0}, {1, 1}}, 0},
		{"empty", Ring{}, 0},
		{"collinear", Ring{{0, 0}, {1, 0}, {2, 0}}, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.ring.SignedArea(); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("SignedArea() = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestRingArea(t *testing.T) {
	cw := Ring{{0, 0}, {0, 2}, {2, 2}, {2, 0}}
	if got := cw.Area(); math.Abs(got-4) > 1e-12 {
		t.Errorf("Area() = %v, want 4", got)
	}
}

func TestRingCentroid(t *testing.T) {
	sq := Ring{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	c := sq.Centroid()
	if math.Abs(c.X-1) > 1e-12 || math.Abs(c.Y-1) > 1e-12 {
		t.Errorf("Centroid() = %v, want (1,1)", c)
	}
}

func TestRingCentroidDegenerate(t *testing.T) {
	line := Ring{{0, 0}, {2, 0}, {4, 0}}
	c := line.Centroid()
	if math.Abs(c.X-2) > 1e-12 || math.Abs(c.Y) > 1e-12 {
		t.Errorf("degenerate Centroid() = %v, want (2,0)", c)
	}
	if got := (Ring{}).Centroid(); got != (Point{}) {
		t.Errorf("empty Centroid() = %v, want origin", got)
	}
}

func TestPointDist(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); math.Abs(d-5) > 1e-12 {
		t.Errorf("Dist = %v, want 5", d)
	}
}

func TestPolygonContains(t *testing.T) {
	pg := unitSquare(0, 0)
	tests := []struct {
		pt   Point
		want bool
	}{
		{Point{0.5, 0.5}, true},
		{Point{1.5, 0.5}, false},
		{Point{-0.1, 0.5}, false},
		{Point{0.5, 2}, false},
		{Point{0.99, 0.99}, true},
	}
	for _, tc := range tests {
		if got := pg.Contains(tc.pt); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.pt, got, tc.want)
		}
	}
}

func TestPolygonValidate(t *testing.T) {
	tests := []struct {
		name    string
		pg      Polygon
		wantErr bool
	}{
		{"valid", unitSquare(0, 0), false},
		{"two points", Polygon{Outer: Ring{{0, 0}, {1, 1}}}, true},
		{"repeated vertex", Polygon{Outer: Ring{{0, 0}, {0, 0}, {1, 1}}}, true},
		{"zero area", Polygon{Outer: Ring{{0, 0}, {1, 0}, {2, 0}}}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.pg.Validate()
			if (err != nil) != tc.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestBBox(t *testing.T) {
	b := EmptyBBox()
	if !b.Empty() {
		t.Fatal("EmptyBBox should be empty")
	}
	if b.Width() != 0 || b.Height() != 0 {
		t.Errorf("empty box dims = %v x %v, want 0 x 0", b.Width(), b.Height())
	}
	b.Extend(Point{1, 2})
	b.Extend(Point{-1, 5})
	if b.Empty() {
		t.Fatal("box should not be empty after Extend")
	}
	if b.MinX != -1 || b.MaxX != 1 || b.MinY != 2 || b.MaxY != 5 {
		t.Errorf("box = %+v", b)
	}
	if b.Width() != 2 || b.Height() != 3 {
		t.Errorf("dims = %v x %v, want 2 x 3", b.Width(), b.Height())
	}

	other := BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	u := b.Union(other)
	if u.MinX != -1 || u.MaxX != 10 || u.MinY != 0 || u.MaxY != 10 {
		t.Errorf("Union = %+v", u)
	}
	if !b.Intersects(other) {
		t.Error("expected intersection")
	}
	far := BBox{MinX: 100, MinY: 100, MaxX: 101, MaxY: 101}
	if b.Intersects(far) {
		t.Error("unexpected intersection with far box")
	}
}

func TestPolygonBBox(t *testing.T) {
	pg := Polygon{Outer: Ring{{1, 1}, {5, 2}, {3, 7}}}
	b := pg.BBox()
	if b.MinX != 1 || b.MaxX != 5 || b.MinY != 1 || b.MaxY != 7 {
		t.Errorf("BBox = %+v", b)
	}
}

func TestRookAdjacencyGrid(t *testing.T) {
	for _, dims := range []struct{ cols, rows int }{{1, 1}, {3, 1}, {1, 4}, {3, 3}, {5, 4}} {
		polys := Lattice(LatticeOptions{Cols: dims.cols, Rows: dims.rows})
		got := Adjacency(polys, Rook)
		want := GridNeighbors(dims.cols, dims.rows, 0)
		if len(got) != len(want) {
			t.Fatalf("%dx%d: adjacency size %d, want %d", dims.cols, dims.rows, len(got), len(want))
		}
		for i := range got {
			if !equalIntSlices(got[i], want[i]) {
				t.Errorf("%dx%d: area %d neighbors = %v, want %v", dims.cols, dims.rows, i, got[i], want[i])
			}
		}
	}
}

func TestRookAdjacencyTrimmedGrid(t *testing.T) {
	polys := Lattice(LatticeOptions{Cols: 4, Rows: 3, Cells: 10})
	if len(polys) != 10 {
		t.Fatalf("got %d polygons, want 10", len(polys))
	}
	got := Adjacency(polys, Rook)
	want := GridNeighbors(4, 3, 10)
	for i := range got {
		if !equalIntSlices(got[i], want[i]) {
			t.Errorf("area %d neighbors = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestQueenAdjacencyIncludesDiagonals(t *testing.T) {
	polys := Lattice(LatticeOptions{Cols: 2, Rows: 2})
	rook := Adjacency(polys, Rook)
	queen := Adjacency(polys, Queen)
	// Under rook, cell 0 has neighbors {1, 2}; queen adds diagonal 3.
	if !equalIntSlices(rook[0], []int{1, 2}) {
		t.Errorf("rook[0] = %v, want [1 2]", rook[0])
	}
	if !equalIntSlices(queen[0], []int{1, 2, 3}) {
		t.Errorf("queen[0] = %v, want [1 2 3]", queen[0])
	}
}

func TestQueenSupersetOfRook(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	polys := Lattice(LatticeOptions{Cols: 6, Rows: 5, Jitter: 0.2, Rng: rng})
	rook := Adjacency(polys, Rook)
	queen := Adjacency(polys, Queen)
	for i := range rook {
		qset := make(map[int]bool)
		for _, j := range queen[i] {
			qset[j] = true
		}
		for _, j := range rook[i] {
			if !qset[j] {
				t.Errorf("rook neighbor %d of %d missing from queen set %v", j, i, queen[i])
			}
		}
	}
}

func TestAdjacencySymmetricIrreflexive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	polys := Lattice(LatticeOptions{Cols: 8, Rows: 8, Jitter: 0.25, Rng: rng})
	for _, rule := range []Contiguity{Rook, Queen} {
		adj := Adjacency(polys, rule)
		for i, nbs := range adj {
			for _, j := range nbs {
				if j == i {
					t.Errorf("%v: self-loop at %d", rule, i)
				}
				if !containsInt(adj[j], i) {
					t.Errorf("%v: asymmetric edge %d->%d", rule, i, j)
				}
			}
		}
	}
}

func TestAdjacencyDefaultRuleIsRook(t *testing.T) {
	polys := Lattice(LatticeOptions{Cols: 2, Rows: 2})
	got := Adjacency(polys, Contiguity(99))
	want := Adjacency(polys, Rook)
	for i := range got {
		if !equalIntSlices(got[i], want[i]) {
			t.Fatalf("unknown rule should fall back to rook")
		}
	}
}

func TestContiguityString(t *testing.T) {
	if Rook.String() != "rook" || Queen.String() != "queen" {
		t.Error("contiguity names wrong")
	}
	if Contiguity(9).String() != "Contiguity(9)" {
		t.Errorf("unknown contiguity String() = %q", Contiguity(9).String())
	}
}

func TestLatticeJitterPreservesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	polys := Lattice(LatticeOptions{Cols: 7, Rows: 6, Jitter: 0.3, Rng: rng})
	got := Adjacency(polys, Rook)
	want := GridNeighbors(7, 6, 0)
	for i := range got {
		if !equalIntSlices(got[i], want[i]) {
			t.Errorf("jittered area %d neighbors = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLatticeCellSizeAndOrigin(t *testing.T) {
	polys := Lattice(LatticeOptions{Cols: 2, Rows: 1, CellSize: 3, OriginX: 10, OriginY: 20})
	if len(polys) != 2 {
		t.Fatalf("got %d polys", len(polys))
	}
	if a := polys[0].Area(); math.Abs(a-9) > 1e-9 {
		t.Errorf("cell area = %v, want 9", a)
	}
	b := polys[0].BBox()
	if b.MinX != 10 || b.MinY != 20 {
		t.Errorf("origin not applied: %+v", b)
	}
}

func TestLatticeDegenerateOptions(t *testing.T) {
	if Lattice(LatticeOptions{Cols: 0, Rows: 5}) != nil {
		t.Error("zero cols should yield nil")
	}
	if Lattice(LatticeOptions{Cols: 5, Rows: -1}) != nil {
		t.Error("negative rows should yield nil")
	}
}

func TestLatticePolygonsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	polys := Lattice(LatticeOptions{Cols: 10, Rows: 10, Jitter: 0.3, Rng: rng})
	for i, pg := range polys {
		if err := pg.Validate(); err != nil {
			t.Errorf("polygon %d invalid: %v", i, err)
		}
		if pg.Area() <= 0 {
			t.Errorf("polygon %d has non-positive area", i)
		}
	}
}

// Property: the sum of signed areas of lattice cells equals the area of the
// whole lattice rectangle, for any jitter (the tiling is exact).
func TestLatticeTilesExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols, rows := 3+rng.Intn(5), 3+rng.Intn(5)
		polys := Lattice(LatticeOptions{Cols: cols, Rows: rows, Jitter: 0.3, Rng: rng})
		var sum float64
		for _, pg := range polys {
			sum += pg.Area()
		}
		want := float64(cols * rows)
		return math.Abs(sum-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: centroid of each lattice cell lies inside the cell.
func TestCentroidInsideCell(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		polys := Lattice(LatticeOptions{Cols: 5, Rows: 5, Jitter: 0.25, Rng: rng})
		for _, pg := range polys {
			if !pg.Contains(pg.Centroid()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
