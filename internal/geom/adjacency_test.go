package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// statesLayout lays lattice blocks out left to right like the census
// generator: blocks of one component abut on whole border edges, and a gap
// separates components.
func statesLayout(rng *rand.Rand, counts []int, rows int, comps int) []Polygon {
	var polys []Polygon
	x := 0.0
	for s, cells := range counts {
		if s > 0 && s*comps/len(counts) != (s-1)*comps/len(counts) {
			x += 2
		}
		cols := (cells + rows - 1) / rows
		polys = append(polys, Lattice(LatticeOptions{
			Cols: cols, Rows: rows, Cells: cells, Jitter: 0.25, Rng: rng, OriginX: x,
		})...)
		x += float64(cols)
	}
	return polys
}

// randomPolygons draws rings of 0-7 vertices on a small integer grid, so
// shared edges and vertices, repeats, zero-length edges and duplicate rings
// are all common. Some vertices sit a fraction of a quantum off the grid.
func randomPolygons(rng *rand.Rand, n int) []Polygon {
	coord := func() float64 {
		v := float64(rng.Intn(5))
		switch rng.Intn(8) {
		case 0:
			v += 0.4 * quantum // snaps onto the grid point
		case 1:
			v += 0.6 * quantum // snaps one quantum away
		}
		return v
	}
	polys := make([]Polygon, n)
	for i := range polys {
		if i > 0 && rng.Intn(10) == 0 {
			polys[i] = polys[rng.Intn(i)]
			continue
		}
		ring := make(Ring, rng.Intn(8))
		for j := range ring {
			ring[j] = Point{coord(), coord()}
		}
		polys[i] = Polygon{Outer: ring}
	}
	return polys
}

// revisitingRing walks the edge (0,0)-(1,0) back and forth k times.
func revisitingRing(k int) Polygon {
	ring := make(Ring, 0, 2*k)
	for i := 0; i < k; i++ {
		ring = append(ring, Point{0, 0}, Point{1, 0})
	}
	return Polygon{Outer: ring}
}

// TestAdjacencyMatchesReference compares the open-addressed kernel with the
// map-based reference, lists and their nil-ness alike, on lattices, census
// style layouts and the degenerate rings the kernel must file the same way.
func TestAdjacencyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		name  string
		polys []Polygon
	}{
		{"empty", nil},
		{"lattice", Lattice(LatticeOptions{Cols: 9, Rows: 7})},
		{"jittered", Lattice(LatticeOptions{Cols: 30, Rows: 20, Jitter: 0.3, Rng: rng})},
		{"jittered trimmed", Lattice(LatticeOptions{Cols: 25, Rows: 17, Cells: 400, Jitter: 0.25, Rng: rng})},
		{"census layout, one component", statesLayout(rng, []int{120, 120, 119, 119}, 11, 1)},
		{"census layout, three components", statesLayout(rng, []int{90, 90, 89, 89, 89, 88, 88}, 9, 3)},
		{"repeated edge", []Polygon{unitSquare(0, -1), revisitingRing(50), unitSquare(0, 0)}},
		{"edge shared by four", []Polygon{
			unitSquare(0, 0), {Outer: Ring{{0, 0}, {1, 0}, {0.5, -1}}},
			{Outer: Ring{{1, 0}, {0, 0}, {0.5, 2}}}, {Outer: Ring{{0, 0}, {1, 0}, {0.5, -3}}},
		}},
		{"duplicate polygons", []Polygon{unitSquare(0, 0), unitSquare(0, 0), unitSquare(1, 0), unitSquare(0, 0)}},
		{"zero-length edges", []Polygon{
			{Outer: Ring{{0, 0}, {0, 0}, {1, 0}, {1, 1}, {1, 1}}},
			{Outer: Ring{{1, 1}, {1, 1}, {2, 1}}},
			{Outer: Ring{{0, 0}, {0, 0}}},
		}},
		{"short rings", []Polygon{
			{}, {Outer: Ring{{0, 0}}}, {Outer: Ring{{0, 0}, {1, 0}}},
			{Outer: Ring{{1, 0}, {0, 0}}}, unitSquare(0, 0), {Outer: Ring{{0, 0}}}, {},
		}},
		{"within one quantum", []Polygon{
			unitSquare(0, 0),
			{Outer: Ring{{1 + 0.4*quantum, 0}, {2, 0}, {2, 1}, {1, 1 - 0.3*quantum}}},
			{Outer: Ring{{1 + 0.6*quantum, 0}, {1, -1}, {0, -1}, {0, 0}}},
			{Outer: Ring{{0, 1 + 0.49*quantum}, {1, 1}, {1, 2}}},
		}},
		{"random rings", randomPolygons(rng, 300)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, rule := range []Contiguity{Rook, Queen, Contiguity(7)} {
				got := Adjacency(tc.polys, rule)
				want := referenceAdjacency(tc.polys, rule)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v:\n got %v\nwant %v", rule, got, want)
				}
			}
		})
	}
}

// TestAdjacencyRepeatedEdgeIsLinear files a ring that walks one edge 10⁵
// times next to a square on that edge. A polygon at the head of its key's
// chain is not filed again, so the work is linear in the ring; a kernel
// that chained every repeat would walk 10¹⁰ records.
func TestAdjacencyRepeatedEdgeIsLinear(t *testing.T) {
	const repeats = 100000
	ring := revisitingRing(repeats)
	for _, polys := range [][]Polygon{
		{unitSquare(0, -1), ring},
		{ring, unitSquare(0, -1)},
	} {
		for _, rule := range []Contiguity{Rook, Queen} {
			start := time.Now()
			got := Adjacency(polys, rule)
			if d := time.Since(start); d > 2*time.Second {
				t.Errorf("%v: %d revisits took %v", rule, repeats, d)
			}
			if want := [][]int{{1}, {0}}; !reflect.DeepEqual(got, want) {
				t.Errorf("%v: got %v, want %v", rule, got, want)
			}
		}
	}
}

// TestAdjacencyCoordBound pins the documented key range: squares a few
// units apart near ±MaxCoord stay apart, and InRange rejects exactly the
// coordinates that would saturate the snap.
func TestAdjacencyCoordBound(t *testing.T) {
	for _, x := range []float64{MaxCoord - 10, -MaxCoord} {
		polys := []Polygon{unitSquare(x, 0), unitSquare(x+5, 0), unitSquare(x+6, 0)}
		want := [][]int{{}, {2}, {1}}
		for _, rule := range []Contiguity{Rook, Queen} {
			if got := Adjacency(polys, rule); !reflect.DeepEqual(got, want) {
				t.Errorf("%v at x=%g: got %v, want %v", rule, x, got, want)
			}
		}
	}
	inf := math.Inf(1)
	for _, tc := range []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{MaxCoord, -MaxCoord}, true},
		{Point{1e10, 0}, false},
		{Point{0, -1e10}, false},
		{Point{math.NaN(), 0}, false},
		{Point{0, inf}, false},
		{Point{-inf, 0}, false},
	} {
		if got := tc.p.InRange(); got != tc.want {
			t.Errorf("%v.InRange() = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// FuzzAdjacency decodes the input as rings on a 4x4 grid, with vertices a
// fraction of a quantum off it and rings repeated, and checks both rules
// against the map-based reference.
func FuzzAdjacency(f *testing.F) {
	// Two unit squares on one edge; a ring walking (0,0)-(1,0) three times
	// beside a square on it; short rings, a zero-length edge and a repeat;
	// a square nudged within its keys beside one nudged off them.
	f.Add([]byte{4, 0x00, 0x01, 0x05, 0x04, 4, 0x01, 0x02, 0x06, 0x05})
	f.Add([]byte{6, 0x00, 0x01, 0x00, 0x01, 0x00, 0x01, 4, 0x00, 0x01, 0x05, 0x04})
	f.Add([]byte{2, 0x00, 0x01, 1, 0x00, 0, 3, 0x00, 0x00, 0x05, 0xff})
	f.Add([]byte{4, 0x40, 0x41, 0x45, 0x44, 4, 0x81, 0x82, 0x86, 0x85, 0xfe})
	f.Fuzz(func(t *testing.T, in []byte) {
		polys := fuzzPolygons(in)
		for _, rule := range []Contiguity{Rook, Queen} {
			got := Adjacency(polys, rule)
			want := referenceAdjacency(polys, rule)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v on %v:\n got %v\nwant %v", rule, polys, got, want)
			}
		}
	})
}

// fuzzPolygons reads a ring length byte and then one byte per vertex: the
// low nibble holds x and y in two bits each, bit 6 nudges x by 0.4 quantum
// (same key) and bit 7 nudges y by 0.6 quantum (next key). A length byte
// of 0xfe or more repeats the previous ring instead.
func fuzzPolygons(in []byte) []Polygon {
	var polys []Polygon
	for len(in) > 0 {
		m := int(in[0])
		in = in[1:]
		if m >= 0xfe {
			if len(polys) > 0 {
				polys = append(polys, polys[len(polys)-1])
			}
			continue
		}
		m %= 9
		if m > len(in) {
			m = len(in)
		}
		ring := make(Ring, m)
		for j, b := range in[:m] {
			p := Point{float64(b & 3), float64(b >> 2 & 3)}
			if b&0x40 != 0 {
				p.X += 0.4 * quantum
			}
			if b&0x80 != 0 {
				p.Y += 0.6 * quantum
			}
			ring[j] = p
		}
		in = in[m:]
		polys = append(polys, Polygon{Outer: ring})
	}
	return polys
}
