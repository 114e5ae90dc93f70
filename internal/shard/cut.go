package shard

import (
	"fmt"
	"math"

	"emp/internal/data"
	"emp/internal/graph"
)

// Cut partitioning tunables. These shape the decomposition quality, not its
// correctness: every value keeps the partitioner a pure deterministic
// function of (dataset, k).
const (
	// cutCoarsestPerPart stops coarsening once the graph is down to about
	// this many vertices per requested part (with cutCoarsestFloor as the
	// lower bound), leaving the greedy initial partition enough resolution
	// to balance part weights.
	cutCoarsestPerPart = 8
	cutCoarsestFloor   = 64
	// cutRefinePasses bounds the boundary-refinement sweeps per level. Each
	// accepted move strictly reduces the total cut weight, so refinement
	// terminates regardless; the bound just caps the work per level.
	cutRefinePasses = 4
	// cutBalanceFactor and cutMinPartFrac bound part weights during
	// refinement: a part may grow to balance*ideal and may not shrink below
	// minFrac*ideal, where ideal = n/k fine vertices.
	cutBalanceFactor = 1.3
	cutMinPartFrac   = 0.5
)

// NewCutPlan slices the dataset into up to k balanced, internally connected
// sub-instances along low-connectivity cuts, producing the same Plan shape
// NewPlan does for connected components. Unlike component sharding the cut
// severs real adjacencies, so the merged solution is not equivalent to a
// whole-graph solve; Plan.CutEdges lists the severed edges so the caller can
// run a boundary repair over the stitch seams.
//
// The partitioner is the standard multilevel scheme (à la the territory-
// design literature): coarsen by deterministic heavy-edge matching over
// similarity-weighted adjacency (similar neighbors collapse together, so
// cuts fall along dissimilar, low-connectivity boundaries), greedily grow a
// k-way partition on the coarsest graph, then uncoarsen with bounded local
// refinement. A final pass splits any disconnected part into its connected
// pieces and merges the smallest pieces back until at most k remain, so
// every shard is internally connected whenever the underlying graph allows
// it (a graph with more than k components necessarily yields more than k
// shards). The result is a pure function of (adjacency, dissimilarity, k) —
// never of worker count or timing.
func NewCutPlan(ds *data.Dataset, k int) (*Plan, error) {
	n := ds.N()
	if k < 2 {
		return nil, fmt.Errorf("shard: cut plan needs k >= 2, got %d", k)
	}
	if k > n {
		k = n
	}
	dis, err := ds.DissimilarityMatrix()
	if err != nil {
		return nil, err
	}
	g := ds.Graph()

	// Multilevel V-cycle: coarsen, partition the coarsest, refine back up.
	levels := []*cutLevel{levelZero(g, dis)}
	for last := levels[len(levels)-1]; last.n > coarsestTarget(k); last = levels[len(levels)-1] {
		next := last.coarsen()
		if next.n >= last.n {
			break // no matchable edges left (isolated vertices only)
		}
		levels = append(levels, next)
	}
	part := levels[len(levels)-1].initialPartition(k)
	for i := len(levels) - 1; i >= 0; i-- {
		if i < len(levels)-1 {
			part = levels[i+1].project(part)
		}
		levels[i].refine(part, k)
	}

	part = connectedParts(levels[0], part, k)
	part = orderParts(part)

	np := 0
	for _, p := range part {
		if int(p)+1 > np {
			np = int(p) + 1
		}
	}
	members := make([][]int, np)
	plan := &Plan{Component: make([]int, n), CutEdges: g.CutEdges(part)}
	for u, p := range part {
		members[p] = append(members[p], u)
		plan.Component[u] = int(p)
	}
	plan.cut(ds, members, "@")
	return plan, nil
}

// coarsestTarget is the vertex count at which coarsening stops.
func coarsestTarget(k int) int {
	t := cutCoarsestPerPart * k
	if t < cutCoarsestFloor {
		t = cutCoarsestFloor
	}
	return t
}

// cutLevel is one level of the multilevel hierarchy: a CSR graph with
// similarity edge weights and fine-vertex counts as vertex weights.
type cutLevel struct {
	n   int
	off []int32
	to  []int32
	w   []float64
	vw  []int64
	// coarseOf maps the previous (finer) level's vertices to this level's;
	// nil at level 0.
	coarseOf []int32
}

// levelZero builds the weighted graph the coarsening starts from. The edge
// weight is a similarity — 1/(1+d) for the pairwise attribute dissimilarity
// d — so heavy-edge matching collapses similar neighbors and the eventual
// cuts land on dissimilar boundaries, where the seam-repair pass has the
// least objective quality to recover.
func levelZero(g *graph.Graph, dis [][]float64) *cutLevel {
	n := g.N()
	l := &cutLevel{
		n:   n,
		off: make([]int32, n+1),
		vw:  make([]int64, n),
	}
	for u := 0; u < n; u++ {
		l.vw[u] = 1
		l.off[u+1] = l.off[u] + int32(len(g.Neighbors(u)))
	}
	l.to = make([]int32, l.off[n])
	l.w = make([]float64, l.off[n])
	for u := 0; u < n; u++ {
		at := l.off[u]
		for _, v := range g.Neighbors(u) {
			d := 0.0
			for _, col := range dis {
				d += math.Abs(col[u] - col[int(v)])
			}
			l.to[at] = v
			l.w[at] = 1 / (1 + d)
			at++
		}
	}
	return l
}

// coarsen contracts a deterministic heavy-edge matching: vertices are
// visited ascending, each unmatched vertex pairs with its heaviest unmatched
// neighbor (ties to the lowest id). Coarse ids are assigned in order of
// first appearance, parallel edges sum their weights.
func (l *cutLevel) coarsen() *cutLevel {
	match := make([]int32, l.n)
	for i := range match {
		match[i] = -1
	}
	for u := 0; u < l.n; u++ {
		if match[u] >= 0 {
			continue
		}
		best, bw := int32(-1), 0.0
		for e := l.off[u]; e < l.off[u+1]; e++ {
			v := l.to[e]
			if match[v] >= 0 {
				continue
			}
			if best < 0 || l.w[e] > bw || (l.w[e] == bw && v < best) {
				best, bw = v, l.w[e]
			}
		}
		if best >= 0 {
			match[u], match[best] = best, int32(u)
		} else {
			match[u] = int32(u)
		}
	}
	coarseOf := make([]int32, l.n)
	for i := range coarseOf {
		coarseOf[i] = -1
	}
	nc := int32(0)
	for u := 0; u < l.n; u++ {
		if coarseOf[u] < 0 {
			coarseOf[u] = nc
			coarseOf[match[u]] = nc
			nc++
		}
	}
	next := &cutLevel{
		n:        int(nc),
		vw:       make([]int64, nc),
		coarseOf: coarseOf,
	}
	// Aggregate edges: bucket each fine edge under its coarse source, then
	// merge duplicates per coarse vertex with a stamped accumulator.
	type half struct {
		to int32
		w  float64
	}
	buckets := make([][]half, nc)
	for u := 0; u < l.n; u++ {
		cu := coarseOf[u]
		next.vw[cu] += l.vw[u]
		for e := l.off[u]; e < l.off[u+1]; e++ {
			cv := coarseOf[l.to[e]]
			if cv != cu {
				buckets[cu] = append(buckets[cu], half{to: cv, w: l.w[e]})
			}
		}
	}
	mark := make([]int32, nc)
	slot := make([]int32, nc)
	for i := range mark {
		mark[i] = -1
	}
	next.off = make([]int32, nc+1)
	for c := int32(0); c < nc; c++ {
		var merged []half
		for _, h := range buckets[c] {
			if mark[h.to] != c {
				mark[h.to] = c
				slot[h.to] = int32(len(merged))
				merged = append(merged, half{to: h.to})
			}
			merged[slot[h.to]].w += h.w
		}
		next.off[c+1] = next.off[c] + int32(len(merged))
		buckets[c] = merged
	}
	next.to = make([]int32, next.off[nc])
	next.w = make([]float64, next.off[nc])
	for c := int32(0); c < nc; c++ {
		at := next.off[c]
		for _, h := range buckets[c] {
			next.to[at] = h.to
			next.w[at] = h.w
			at++
		}
	}
	return next
}

// project lifts a coarse assignment back to this level's finer predecessor.
func (l *cutLevel) project(coarse []int32) []int32 {
	fine := make([]int32, len(l.coarseOf))
	for u := range fine {
		fine[u] = coarse[l.coarseOf[u]]
	}
	return fine
}

// initialPartition greedily grows k parts on the (small) coarsest graph.
// Each part seeds at the lowest unassigned vertex and repeatedly absorbs the
// unassigned vertex with the strongest connection to the part (ties to the
// lowest id), jumping to a fresh seed when the frontier empties — so
// disconnected graphs partition naturally. Part budgets spread the remaining
// vertex weight evenly over the remaining parts.
func (l *cutLevel) initialPartition(k int) []int32 {
	part := make([]int32, l.n)
	for i := range part {
		part[i] = -1
	}
	conn := make([]float64, l.n)
	var remaining int64
	for _, w := range l.vw {
		remaining += w
	}
	assigned := 0
	for pid := 0; pid < k && assigned < l.n; pid++ {
		target := remaining / int64(k-pid)
		if target < 1 {
			target = 1
		}
		for i := range conn {
			conn[i] = 0
		}
		var load int64
		for assigned < l.n {
			if pid < k-1 && load >= target {
				break
			}
			best := -1
			for v := 0; v < l.n; v++ {
				if part[v] >= 0 {
					continue
				}
				if best < 0 || conn[v] > conn[best] {
					best = v
				}
			}
			if best < 0 {
				break
			}
			part[best] = int32(pid)
			assigned++
			load += l.vw[best]
			for e := l.off[best]; e < l.off[best+1]; e++ {
				if part[l.to[e]] < 0 {
					conn[l.to[e]] += l.w[e]
				}
			}
		}
		remaining -= load
	}
	return part
}

// refine sweeps the level's vertices in ascending order, moving a vertex to
// the adjacent part it is most strongly connected to when that strictly
// reduces the cut weight and keeps part loads within the balance bounds.
// Moves apply sequentially, so the outcome is deterministic.
func (l *cutLevel) refine(part []int32, k int) {
	loads := make([]int64, k)
	var total int64
	for v := 0; v < l.n; v++ {
		loads[part[v]] += l.vw[v]
		total += l.vw[v]
	}
	ideal := float64(total) / float64(k)
	maxLoad := int64(cutBalanceFactor * ideal)
	minLoad := int64(cutMinPartFrac * ideal)
	partW := make([]float64, k)
	touched := make([]int32, 0, 8)
	for pass := 0; pass < cutRefinePasses; pass++ {
		moved := 0
		for u := 0; u < l.n; u++ {
			pu := part[u]
			for e := l.off[u]; e < l.off[u+1]; e++ {
				pv := part[l.to[e]]
				found := false
				for _, t := range touched {
					if t == pv {
						found = true
						break
					}
				}
				if !found {
					touched = append(touched, pv)
				}
				partW[pv] += l.w[e]
			}
			best, bw := int32(-1), 0.0
			for _, pv := range touched {
				if pv == pu {
					continue
				}
				if best < 0 || partW[pv] > bw || (partW[pv] == bw && pv < best) {
					best, bw = pv, partW[pv]
				}
			}
			if best >= 0 && bw > partW[pu]+1e-12 &&
				loads[pu]-l.vw[u] >= minLoad && loads[best]+l.vw[u] <= maxLoad {
				part[u] = best
				loads[pu] -= l.vw[u]
				loads[best] += l.vw[u]
				moved++
			}
			for _, pv := range touched {
				partW[pv] = 0
			}
			touched = touched[:0]
		}
		if moved == 0 {
			break
		}
	}
}

// connectedParts splits every part of the level-0 assignment into its
// connected pieces, then repeatedly merges the smallest piece (ties to the
// lowest minimum member) into the adjacent piece it shares the most
// similarity weight with, until at most k pieces remain or no piece has a
// neighbor left. Merging two adjacent connected subgraphs stays connected,
// so every returned part is internally connected; only a graph with more
// than k components can exceed k parts.
func connectedParts(l *cutLevel, part []int32, k int) []int32 {
	lab := make([]int32, l.n)
	for i := range lab {
		lab[i] = -1
	}
	queue := make([]int32, 0, l.n)
	np := int32(0)
	for u := 0; u < l.n; u++ {
		if lab[u] >= 0 {
			continue
		}
		lab[u] = np
		queue = append(queue[:0], int32(u))
		for len(queue) > 0 {
			x := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for e := l.off[x]; e < l.off[x+1]; e++ {
				v := l.to[e]
				if lab[v] < 0 && part[v] == part[x] {
					lab[v] = np
					queue = append(queue, v)
				}
			}
		}
		np++
	}
	for int(np) > k {
		size := make([]int64, np)
		minMember := make([]int32, np)
		for i := range minMember {
			minMember[i] = int32(l.n)
		}
		for u := 0; u < l.n; u++ {
			p := lab[u]
			size[p] += l.vw[u]
			if int32(u) < minMember[p] {
				minMember[p] = int32(u)
			}
		}
		// Smallest mergeable piece (one that has at least one neighbor).
		hasNb := make([]bool, np)
		for u := 0; u < l.n; u++ {
			for e := l.off[u]; e < l.off[u+1]; e++ {
				if lab[l.to[e]] != lab[u] {
					hasNb[lab[u]] = true
				}
			}
		}
		src := int32(-1)
		for p := int32(0); p < np; p++ {
			if !hasNb[p] {
				continue
			}
			if src < 0 || size[p] < size[src] ||
				(size[p] == size[src] && minMember[p] < minMember[src]) {
				src = p
			}
		}
		if src < 0 {
			break // every remaining piece is an isolated component
		}
		// Merge src into the neighbor it shares the most weight with.
		connW := make([]float64, np)
		for u := 0; u < l.n; u++ {
			if lab[u] != src {
				continue
			}
			for e := l.off[u]; e < l.off[u+1]; e++ {
				if q := lab[l.to[e]]; q != src {
					connW[q] += l.w[e]
				}
			}
		}
		dst := int32(-1)
		for q := int32(0); q < np; q++ {
			if connW[q] <= 0 {
				continue
			}
			if dst < 0 || connW[q] > connW[dst] {
				dst = q
			}
		}
		for u := 0; u < l.n; u++ {
			if lab[u] == src {
				lab[u] = dst
			}
		}
		// Compact labels so np shrinks by exactly one.
		remap := make([]int32, np)
		for i := range remap {
			remap[i] = -1
		}
		next := int32(0)
		for u := 0; u < l.n; u++ {
			if remap[lab[u]] < 0 {
				remap[lab[u]] = next
				next++
			}
			lab[u] = remap[lab[u]]
		}
		np = next
	}
	return lab
}

// orderParts renumbers part labels so parts are ordered by their smallest
// member id — the same convention component plans use, making the shard
// order (and with it the merged region order) a deterministic function of
// the dataset and k alone.
func orderParts(part []int32) []int32 {
	remap := map[int32]int32{}
	next := int32(0)
	for _, p := range part {
		if _, ok := remap[p]; !ok {
			remap[p] = next
			next++
		}
	}
	out := make([]int32, len(part))
	for u, p := range part {
		out[u] = remap[p]
	}
	return out
}
