package tabu

import (
	"emp/internal/geom"
	"emp/internal/region"
)

// Objective is the optimization target of the local-search phase. The
// paper's Section III notes the Tabu phase "can deal with different
// optimization functions", naming spatial compactness and multi-criteria
// balancing as alternatives to the default heterogeneity; this interface is
// that extension point.
//
// Implementations must be consistent: DeltaMove(area, to) must equal the
// change of Total after performing the move. Lower totals are better. Both
// must be pure functions of the partition (its assignment, member orders and
// aggregates), with no state of their own: the searcher skips the repeats of
// a search cycle once the partition and its own state are proven to have
// returned exactly, and that proof cannot see state hidden in an objective.
// Heterogeneity, Compactness and Weighted over them all qualify.
type Objective interface {
	// Total evaluates the partition.
	Total(p *region.Partition) float64
	// DeltaMove returns the change in Total if the area moved from its
	// current region to the target region, without mutating the partition.
	DeltaMove(p *region.Partition, area, to int) float64
}

// Reindexer is implemented by objectives that hold per-area state indexed
// by area id, such as Compactness's centroids. Reindex returns the objective
// for a sub-instance whose local area i is area ids[i] of the instance the
// objective was built for. Sharded solves re-index the objective to each
// shard before its sub-solve, since shard datasets renumber their areas; an
// objective without per-area state need not implement it.
type Reindexer interface {
	Reindex(ids []int) Objective
}

// Reindex returns obj re-indexed to the sub-instance whose local area i is
// area ids[i], or obj itself when it holds no per-area state (it is not a
// Reindexer). A nil objective stays nil.
func Reindex(obj Objective, ids []int) Objective {
	if r, ok := obj.(Reindexer); ok {
		return r.Reindex(ids)
	}
	return obj
}

// Heterogeneity is the paper's default objective: H(P), the sum over
// regions of pairwise absolute differences of the dissimilarity attribute
// (Equation 1).
type Heterogeneity struct{}

// Total returns H(P).
func (Heterogeneity) Total(p *region.Partition) float64 { return p.Heterogeneity() }

// DeltaMove returns the H(P) change of a move.
func (Heterogeneity) DeltaMove(p *region.Partition, area, to int) float64 {
	return p.HeteroDeltaMove(area, to)
}

// Compactness measures regions by the within-region sum of squared
// distances of area centroids to the region's mean centroid (the k-means
// dispersion). Lower is more spatially compact.
type Compactness struct {
	// Centroids holds one representative point per area.
	Centroids []geom.Point
}

// NewCompactness builds the objective from area polygons.
func NewCompactness(polys []geom.Polygon) *Compactness {
	cents := make([]geom.Point, len(polys))
	for i, pg := range polys {
		cents[i] = pg.Centroid()
	}
	return &Compactness{Centroids: cents}
}

// Reindex returns the objective over the centroids of areas ids, in order.
func (c *Compactness) Reindex(ids []int) Objective {
	cents := make([]geom.Point, len(ids))
	for i, a := range ids {
		cents[i] = c.Centroids[a]
	}
	return &Compactness{Centroids: cents}
}

// regionSSE computes Σ|x_i − μ|² for the member centroids using the
// identity Σ|x−μ|² = Σ|x|² − n·|μ|².
func (c *Compactness) regionSSE(members []int) float64 {
	var sx, sy, sq float64
	for _, a := range members {
		p := c.Centroids[a]
		sx += p.X
		sy += p.Y
		sq += p.X*p.X + p.Y*p.Y
	}
	n := float64(len(members))
	if n == 0 {
		return 0
	}
	return sq - (sx*sx+sy*sy)/n
}

// Total returns the summed dispersion over regions.
func (c *Compactness) Total(p *region.Partition) float64 {
	var total float64
	for _, id := range p.RegionIDs() {
		total += c.regionSSE(p.Region(id).Members)
	}
	return total
}

// DeltaMove computes the dispersion change of a move in O(|from| + |to|).
func (c *Compactness) DeltaMove(p *region.Partition, area, to int) float64 {
	from := p.Region(p.Assignment(area))
	toR := p.Region(to)
	before := c.regionSSE(from.Members) + c.regionSSE(toR.Members)
	rest := make([]int, 0, len(from.Members)-1)
	for _, a := range from.Members {
		if a != area {
			rest = append(rest, a)
		}
	}
	grown := append(append(make([]int, 0, len(toR.Members)+1), toR.Members...), area)
	after := c.regionSSE(rest) + c.regionSSE(grown)
	return after - before
}

// Weighted combines objectives linearly: Σ w_i · obj_i. Use it to balance
// heterogeneity against compactness (the paper's "balancing multiple
// criteria" case).
type Weighted struct {
	Objectives []Objective
	Weights    []float64
}

// Total returns the weighted sum of the component totals.
func (w *Weighted) Total(p *region.Partition) float64 {
	var total float64
	for i, o := range w.Objectives {
		total += w.Weights[i] * o.Total(p)
	}
	return total
}

// DeltaMove returns the weighted sum of the component deltas.
func (w *Weighted) DeltaMove(p *region.Partition, area, to int) float64 {
	var d float64
	for i, o := range w.Objectives {
		d += w.Weights[i] * o.DeltaMove(p, area, to)
	}
	return d
}

// Reindex re-indexes every component objective that holds per-area state.
func (w *Weighted) Reindex(ids []int) Objective {
	objs := make([]Objective, len(w.Objectives))
	for i, o := range w.Objectives {
		objs[i] = Reindex(o, ids)
	}
	return &Weighted{Objectives: objs, Weights: w.Weights}
}
