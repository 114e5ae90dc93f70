package geom

import (
	"fmt"
	"math"
	"slices"
)

// Contiguity selects how polygon adjacency is derived.
type Contiguity int

const (
	// Rook contiguity: two areas are neighbors when they share a whole
	// edge (a pair of consecutive vertices).
	Rook Contiguity = iota
	// Queen contiguity: two areas are neighbors when they share at least
	// one vertex.
	Queen
)

// String returns the conventional GIS name of the contiguity rule.
func (c Contiguity) String() string {
	switch c {
	case Rook:
		return "rook"
	case Queen:
		return "queen"
	default:
		return fmt.Sprintf("Contiguity(%d)", int(c))
	}
}

// quantum is the coordinate snapping grid used when hashing vertices and
// edges. Polygon borders coming from the same source tile share exact
// coordinates; the quantum absorbs float formatting noise from IO round
// trips without merging genuinely distinct vertices.
const quantum = 1e-9

// MaxCoord bounds the coordinates Adjacency can key exactly. A coordinate
// snaps to the int64 count of quanta nearest to it, and past ±9.22e9 (or at
// NaN and ±Inf) that count saturates, so distinct vertices would share one
// key and polygons that never touch would come back as neighbors.
const MaxCoord = 9e9

// InRange reports whether both coordinates of p are finite and within
// ±MaxCoord, the range Adjacency keys exactly.
func (p Point) InRange() bool {
	return math.Abs(p.X) <= MaxCoord && math.Abs(p.Y) <= MaxCoord
}

func snap(v float64) int64 {
	return int64(math.Round(v / quantum))
}

type vertexKey struct {
	X, Y int64
}

type edgeKey struct {
	A, B vertexKey
}

func keyOf(p Point) vertexKey { return vertexKey{snap(p.X), snap(p.Y)} }

// canonicalEdge orders the edge endpoints so that the key is direction
// independent: polygon A traverses the shared edge opposite to polygon B.
func canonicalEdge(p, q Point) edgeKey {
	a, b := keyOf(p), keyOf(q)
	if a.X > b.X || (a.X == b.X && a.Y > b.Y) {
		a, b = b, a
	}
	return edgeKey{a, b}
}

// hashMul is the odd 64-bit golden-ratio constant. Keys are hashed by
// multiplying and xoring their words into one product and taking its top
// bits, which every input bit reaches.
const hashMul = 0x9e3779b97f4a7c15

func (k vertexKey) hash() uint64 {
	return (uint64(k.X)*hashMul ^ uint64(k.Y)) * hashMul
}

func (k edgeKey) hash() uint64 {
	return ((k.A.hash()^uint64(k.B.X))*hashMul ^ uint64(k.B.Y)) * hashMul
}

// tableKey is a snapped key the contiguity table files: an edge under rook,
// a vertex under queen.
type tableKey interface {
	comparable
	hash() uint64
}

// Adjacency computes the neighbor lists of the given polygons under the
// chosen contiguity rule; an unknown rule means Rook. The result has one
// sorted, duplicate-free slice per polygon, all cut from one backing array;
// adjacency is symmetric and irreflexive.
//
// Every ring edge (rook) or vertex (queen) is snapped to the quantum grid
// and filed once into an open-addressed table sized to twice the vertex
// count. A slot holds the head of a chain of records, one per polygon that
// has the key. Polygons are filed in id order, so a polygon that revisits
// an edge or a vertex finds itself at the head and is not filed again.
// Filing a polygon pairs it with every polygon already on the chain, and
// one counting pass then lays the pairs out as the sorted lists. The cost
// is O(total vertices) expected, plus O(k²) for a key that k polygons
// share, which matches the neighbor pairs such a key yields.
//
// Coordinates must be finite and within ±MaxCoord (see Point.InRange):
// beyond it snapping saturates and unrelated polygons share keys. The
// shapefile and GeoJSON decoders reject such input.
func Adjacency(polys []Polygon, rule Contiguity) [][]int {
	if rule == Queen {
		return adjacency(polys, func(r Ring, i int) vertexKey { return keyOf(r[i]) })
	}
	return adjacency(polys, func(r Ring, i int) edgeKey { return canonicalEdge(r.Edge(i)) })
}

// record files one polygon under one key. next is the record that headed
// the key's chain before it. Record 0 is a sentinel, so 0 means "none"
// both in next and in a table slot.
type record[K tableKey] struct {
	key  K
	poly int32
	next int32
}

// adjacency is the kernel behind Adjacency; keyAt returns the key of edge
// or vertex i of a ring.
func adjacency[K tableKey](polys []Polygon, keyAt func(Ring, int) K) [][]int {
	n := len(polys)
	total := 0
	for _, pg := range polys {
		total += len(pg.Outer)
	}
	if total >= math.MaxInt32 {
		// Records are int32-indexed; the points alone would fill 32 GiB.
		panic(fmt.Sprintf("geom: %d ring vertices exceed the int32 record space", total))
	}
	shift := 64
	for 1<<(64-shift) < 2*total {
		shift--
	}
	table := make([]int32, 1<<(64-shift))
	mask := len(table) - 1
	recs := make([]record[K], 1, total+1)
	pairs := make([]int32, 0, 2*total) // (earlier, later) polygon id pairs
	deg := make([]int, n)              // pairs per polygon, repeats included
	for id, pg := range polys {
		p := int32(id)
		for i := range pg.Outer {
			k := keyAt(pg.Outer, i)
			s := int(k.hash() >> shift)
			for table[s] != 0 && recs[table[s]].key != k {
				s = (s + 1) & mask
			}
			head := table[s]
			if head != 0 && recs[head].poly == p {
				continue
			}
			for r := head; r != 0; r = recs[r].next {
				q := recs[r].poly
				pairs = append(pairs, q, p)
				deg[q]++
				deg[id]++
			}
			recs = append(recs, record[K]{key: k, poly: p, next: head})
			table[s] = int32(len(recs) - 1)
		}
	}

	// Turn the counts into write cursors at each list's start; once every
	// pair is written, each cursor sits at its list's end.
	sum := 0
	for u, d := range deg {
		deg[u] = sum
		sum += d
	}
	arena := make([]int, sum)
	for i := 0; i < len(pairs); i += 2 {
		a, b := pairs[i], pairs[i+1]
		arena[deg[a]] = int(b)
		deg[a]++
		arena[deg[b]] = int(a)
		deg[b]++
	}
	// Polygons sharing several keys were paired once per key: sort and
	// compact each list, packing the lists towards the arena's front.
	adj := make([][]int, n)
	start, w := 0, 0
	for u, end := range deg {
		nb := arena[start:end]
		slices.Sort(nb)
		nb = slices.Compact(nb)
		start = end
		from := w
		w += copy(arena[w:], nb)
		adj[u] = arena[from:w:w]
	}
	return adj
}
