package geom

import (
	"fmt"
	"math"
	"slices"
	"sort"
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

// Adjacency computes the neighbor lists of the given polygons under the
// chosen contiguity rule. The result has one sorted, duplicate-free slice
// per polygon; adjacency is symmetric and irreflexive.
//
// Complexity is O(total vertices) expected: every edge (rook) or vertex
// (queen) is hashed once and each bucket is expanded pairwise. Degenerate
// inputs where many polygons meet at one vertex cost O(k^2) for that bucket,
// matching the true neighbor count.
func Adjacency(polys []Polygon, rule Contiguity) [][]int {
	switch rule {
	case Rook:
		return rookAdjacency(polys)
	case Queen:
		return queenAdjacency(polys)
	default:
		return rookAdjacency(polys)
	}
}

func rookAdjacency(polys []Polygon) [][]int {
	buckets := make(map[edgeKey][]int)
	for id, pg := range polys {
		r := pg.Outer
		for i := range r {
			p, q := r.Edge(i)
			k := canonicalEdge(p, q)
			buckets[k] = append(buckets[k], id)
		}
	}
	return expandBuckets(len(polys), buckets)
}

func queenAdjacency(polys []Polygon) [][]int {
	buckets := make(map[vertexKey][]int)
	for id, pg := range polys {
		for _, p := range pg.Outer {
			k := keyOf(p)
			buckets[k] = append(buckets[k], id)
		}
	}
	return expandBuckets(len(polys), buckets)
}

// expandBuckets links every pair of polygons that share a bucket (an edge
// under rook, a vertex under queen) and returns the sorted neighbor lists.
// Polygons are filed in id order, so a polygon that revisits a vertex or an
// edge fills consecutive entries of its bucket; compacting them first keeps
// the pairwise links quadratic in distinct polygons only.
func expandBuckets[K comparable](n int, buckets map[K][]int) [][]int {
	sets := make([]map[int]bool, n)
	for _, ids := range buckets {
		ids = slices.Compact(ids)
		for i, a := range ids {
			for _, b := range ids[i+1:] {
				if sets[a] == nil {
					sets[a] = make(map[int]bool)
				}
				if sets[b] == nil {
					sets[b] = make(map[int]bool)
				}
				sets[a][b] = true
				sets[b][a] = true
			}
		}
	}
	adj := make([][]int, n)
	for i, set := range sets {
		nb := make([]int, 0, len(set))
		for j := range set {
			nb = append(nb, j)
		}
		sort.Ints(nb)
		adj[i] = nb
	}
	return adj
}
