// Package skater implements SKATER-style tree-partition regionalization
// (Assunção et al. 2006), the "tree partition" construction family the
// paper's related work surveys ([5], [6] in the paper).
//
// SKATER fixes the number of regions k (unlike max-p, which discovers it):
// it builds a minimum spanning tree of the contiguity graph weighted by
// attribute dissimilarity, then greedily removes the k-1 tree edges whose
// removal most reduces the total within-region sum of squared deviations
// (SSD) of the dissimilarity attribute. Every resulting region is
// spatially contiguous by construction.
//
// In this repository SKATER serves as a quality baseline: given FaCT's p,
// SKATER produces a k=p partition whose heterogeneity can be compared
// against FaCT's (ignoring the user-defined constraints, which SKATER
// cannot express).
package skater

import (
	"fmt"

	"emp/internal/data"
)

// Result is a SKATER partition.
type Result struct {
	// Assignment maps each area to a dense region index in [0, K).
	Assignment []int
	// K is the number of regions produced (may exceed the requested k
	// when the contiguity graph has more connected components).
	K int
	// SSD is the total within-region sum of squared deviations of the
	// dissimilarity attribute.
	SSD float64
}

// Solve partitions the dataset into k contiguous regions.
func Solve(ds *data.Dataset, k int) (*Result, error) {
	n := ds.N()
	if n == 0 {
		return nil, fmt.Errorf("skater: empty dataset")
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("skater: k = %d out of range [1, %d]", k, n)
	}
	dis, err := ds.DissimilarityColumn()
	if err != nil {
		return nil, err
	}
	g := ds.Graph()
	_, comps := g.Components()
	if k < comps {
		return nil, fmt.Errorf("skater: k = %d below the number of connected components (%d)", k, comps)
	}

	// Minimum spanning forest under |d_u - d_v| edge weights.
	forest := g.MinimumSpanningForest(func(u, v int) float64 {
		return abs(dis[u] - dis[v])
	})
	// Tree adjacency: forest edges are distinct, so appending both
	// directions gives each vertex its tree neighbors in forest order.
	tree := make([][]int, n)
	for _, e := range forest {
		tree[e.U] = append(tree[e.U], e.V)
		tree[e.V] = append(tree[e.V], e.U)
	}

	// Greedy edge removal: cut the edge that most reduces total SSD.
	removed := make(map[[2]int]bool)
	for regions := comps; regions < k; regions++ {
		bestEdge := [2]int{-1, -1}
		bestGain := -1.0
		for _, e := range forest {
			key := edgeKey(e.U, e.V)
			if removed[key] {
				continue
			}
			gain := cutGain(tree, removed, dis, e.U, e.V)
			if gain > bestGain {
				bestGain = gain
				bestEdge = key
			}
		}
		if bestEdge[0] < 0 {
			break
		}
		removed[bestEdge] = true
	}

	// Final components of the pruned tree.
	assign := components(tree, removed, n)
	kOut := 0
	for _, c := range assign {
		if c+1 > kOut {
			kOut = c + 1
		}
	}
	return &Result{
		Assignment: assign,
		K:          kOut,
		SSD:        totalSSD(assign, kOut, dis),
	}, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// subtreeMembers collects the vertices reachable from start in the pruned
// tree without crossing the (start, blocked) edge.
func subtreeMembers(tree [][]int, removed map[[2]int]bool, start, blocked int) []int {
	visited := map[int]bool{start: true}
	stack := []int{start}
	var out []int
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, u)
		for _, v := range tree[u] {
			if u == start && v == blocked {
				continue
			}
			if removed[edgeKey(u, v)] || visited[v] {
				continue
			}
			visited[v] = true
			stack = append(stack, v)
		}
	}
	return out
}

// ssdOf returns the sum of squared deviations of dis over the members.
func ssdOf(members []int, dis []float64) float64 {
	if len(members) == 0 {
		return 0
	}
	var sum float64
	for _, a := range members {
		sum += dis[a]
	}
	mean := sum / float64(len(members))
	var ssd float64
	for _, a := range members {
		d := dis[a] - mean
		ssd += d * d
	}
	return ssd
}

// cutGain computes the SSD reduction of cutting edge (u, v): SSD of the
// joint component minus the SSDs of the two sides.
func cutGain(tree [][]int, removed map[[2]int]bool, dis []float64, u, v int) float64 {
	left := subtreeMembers(tree, removed, u, v)
	right := subtreeMembers(tree, removed, v, u)
	joint := append(append([]int(nil), left...), right...)
	return ssdOf(joint, dis) - ssdOf(left, dis) - ssdOf(right, dis)
}

// components labels the pruned tree's components with dense ids in order of
// lowest member.
func components(tree [][]int, removed map[[2]int]bool, n int) []int {
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	next := 0
	for s := 0; s < n; s++ {
		if assign[s] >= 0 {
			continue
		}
		assign[s] = next
		stack := []int{s}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range tree[u] {
				if removed[edgeKey(u, v)] || assign[v] >= 0 {
					continue
				}
				assign[v] = next
				stack = append(stack, v)
			}
		}
		next++
	}
	return assign
}

func totalSSD(assign []int, k int, dis []float64) float64 {
	groups := make([][]int, k)
	for a, c := range assign {
		groups[c] = append(groups[c], a)
	}
	var total float64
	for _, members := range groups {
		total += ssdOf(members, dis)
	}
	return total
}
