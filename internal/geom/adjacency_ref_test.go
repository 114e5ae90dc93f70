package geom

import (
	"slices"
	"sort"
)

// A map-based contiguity extraction, the reference the differential and
// fuzz tests compare Adjacency against: one map bucket per edge or vertex
// key, and one neighbor set per polygon.

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

// referenceAdjacency dispatches like Adjacency: an unknown rule means Rook.
func referenceAdjacency(polys []Polygon, rule Contiguity) [][]int {
	if rule == Queen {
		return queenAdjacency(polys)
	}
	return rookAdjacency(polys)
}
