package stats

import "emp/internal/graph"

// MoranI computes Moran's I, the standard measure of spatial
// autocorrelation, for values x under binary contiguity weights given by
// the contiguity graph:
//
//	I = (n / W) · Σ_ij w_ij (x_i − x̄)(x_j − x̄) / Σ_i (x_i − x̄)²
//
// where W is the total weight (number of directed neighbor pairs). Values
// near +1 indicate strong positive autocorrelation (similar neighbors),
// values near the expectation E[I] = −1/(n−1) indicate randomness, negative
// values indicate checkerboard patterns. The synthetic census substrate is
// validated to produce positive I, matching real tract data.
func MoranI(x []float64, g *graph.Graph) float64 {
	n := len(x)
	if n < 2 || g.N() != n {
		return 0
	}
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)

	var num, den float64
	var w float64
	for i := 0; i < n; i++ {
		di := x[i] - mean
		den += di * di
		for _, j := range g.Neighbors(i) {
			num += di * (x[j] - mean)
			w++
		}
	}
	if den == 0 || w == 0 {
		return 0
	}
	return float64(n) / w * num / den
}

// JoinCountSameRegion measures how spatially coherent a region assignment
// is: the fraction of neighbor pairs assigned to the same region
// (unassigned areas excluded). A contiguity-respecting regionalization
// scores high; a random labeling scores about 1/p.
func JoinCountSameRegion(assignment []int, g *graph.Graph) float64 {
	var same, total float64
	for i := 0; i < g.N() && i < len(assignment); i++ {
		if assignment[i] < 0 {
			continue
		}
		for _, j := range g.Neighbors(i) {
			if int(j) >= len(assignment) || assignment[j] < 0 {
				continue
			}
			total++
			if assignment[i] == assignment[j] {
				same++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return same / total
}
