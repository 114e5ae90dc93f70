// Package data defines the dataset model shared by all EMP components: a
// set of spatial areas with polygon boundaries, a contiguity structure, and
// named spatially-extensive attribute columns.
//
// The paper's datasets are US census tracts joined with 2010 census
// attributes; this package holds the equivalent in-memory representation and
// its (de)serialization, independent of whether the data came from the
// synthetic census substrate (internal/census) or from files.
package data

import (
	"fmt"
	"math"

	"emp/internal/geom"
	"emp/internal/graph"
)

// Dataset is a regionalization instance: n areas, their contiguity graph,
// and attribute columns. Polygons are optional — when present they are the
// source of truth for contiguity; when absent the graph stands alone (as
// when decoding a dataset JSON with adjacency lists only). The graph is
// built once by the constructor (New, FromPolygons, ReadJSON, Split) and
// read through Graph; the zero value is an empty dataset.
type Dataset struct {
	// Name identifies the dataset in reports (e.g. "2k").
	Name string
	// Polygons holds one boundary polygon per area; may be nil.
	Polygons []geom.Polygon
	// AttrNames lists attribute columns in a stable order.
	AttrNames []string
	// Cols holds one value per area for each attribute, parallel to
	// AttrNames.
	Cols [][]float64
	// Dissimilarity names the attribute used for the heterogeneity
	// objective H(P).
	Dissimilarity string
	// DissimilarityAttrs, when non-empty, overrides Dissimilarity with a
	// multivariate heterogeneity: H(P) sums the pairwise Manhattan
	// distances over these attributes, each scaled by the inverse of its
	// standard deviation so no attribute dominates by unit choice. The
	// paper's single-attribute H is the special case of one attribute
	// (which is used unscaled for exact comparability).
	DissimilarityAttrs []string

	// g is the contiguity graph over the areas.
	g graph.Graph
}

// New creates a dataset with one area per adjacency list and no
// attributes. It fails when a list names an area outside [0, len(adj));
// symmetry is checked by Validate.
func New(name string, adj [][]int) (*Dataset, error) {
	g, err := graph.FromAdjacency(adj)
	if err != nil {
		return nil, fmt.Errorf("data: dataset %q: %w", name, err)
	}
	return &Dataset{Name: name, g: *g}, nil
}

// FromPolygons builds a dataset whose contiguity is derived from the polygon
// geometry under the given contiguity rule.
func FromPolygons(name string, polys []geom.Polygon, rule geom.Contiguity) *Dataset {
	d, err := New(name, geom.Adjacency(polys, rule))
	if err != nil {
		// geom.Adjacency lists only ids in [0, len(polys)), and a neighbor
		// total past the int32 offset space would exhaust memory in its
		// pairwise expansion before reaching New.
		panic(err)
	}
	d.Polygons = polys
	return d
}

// N returns the number of areas.
func (d *Dataset) N() int { return d.g.N() }

// AddColumn appends an attribute column. The column length must equal N.
func (d *Dataset) AddColumn(name string, col []float64) error {
	if len(col) != d.N() {
		return fmt.Errorf("data: column %q has %d values for %d areas", name, len(col), d.N())
	}
	if d.Column(name) != nil {
		return fmt.Errorf("data: duplicate column %q", name)
	}
	d.AttrNames = append(d.AttrNames, name)
	d.Cols = append(d.Cols, col)
	return nil
}

// Column returns the attribute column by name, or nil when absent.
func (d *Dataset) Column(name string) []float64 {
	for i, n := range d.AttrNames {
		if n == name {
			return d.Cols[i]
		}
	}
	return nil
}

// DissimilarityColumn returns the column configured as the heterogeneity
// attribute, or an error when unset or missing.
func (d *Dataset) DissimilarityColumn() ([]float64, error) {
	if d.Dissimilarity == "" {
		return nil, fmt.Errorf("data: dataset %q has no dissimilarity attribute configured", d.Name)
	}
	col := d.Column(d.Dissimilarity)
	if col == nil {
		return nil, fmt.Errorf("data: dissimilarity attribute %q not found", d.Dissimilarity)
	}
	return col, nil
}

// DissimilarityMatrix returns the dissimilarity columns driving H(P): one
// row per attribute. With DissimilarityAttrs set, each column is scaled by
// 1/stddev (z-scaling; the mean cancels in pairwise differences) so units
// don't dominate; with only Dissimilarity set, the single column is
// returned raw to match the paper's H exactly.
func (d *Dataset) DissimilarityMatrix() ([][]float64, error) {
	if len(d.DissimilarityAttrs) == 0 {
		col, err := d.DissimilarityColumn()
		if err != nil {
			return nil, err
		}
		return [][]float64{col}, nil
	}
	out := make([][]float64, 0, len(d.DissimilarityAttrs))
	for _, name := range d.DissimilarityAttrs {
		col := d.Column(name)
		if col == nil {
			return nil, fmt.Errorf("data: dissimilarity attribute %q not found", name)
		}
		var mean, ss float64
		for _, v := range col {
			mean += v
		}
		mean /= float64(len(col))
		for _, v := range col {
			dlt := v - mean
			ss += dlt * dlt
		}
		sd := math.Sqrt(ss / float64(len(col)))
		scaled := make([]float64, len(col))
		if sd == 0 {
			// Constant column: contributes nothing to pairwise distances.
			out = append(out, scaled)
			continue
		}
		for i, v := range col {
			scaled[i] = v / sd
		}
		out = append(out, scaled)
	}
	return out, nil
}

// Graph returns the contiguity graph. It is immutable, so every caller —
// partition construction, per-solve validation, shard planning — shares
// it, concurrently if need be.
func (d *Dataset) Graph() *graph.Graph { return &d.g }

// Components returns the number of connected components of the contiguity
// graph. EMP (unlike MP-regions) supports multi-component datasets.
func (d *Dataset) Components() int {
	_, count := d.Graph().Components()
	return count
}

// Validate checks structural consistency: symmetric contiguity, column
// lengths, polygon count, finite attribute values, and that the
// dissimilarity attribute (when set) exists.
func (d *Dataset) Validate() error {
	if err := d.Graph().Validate(); err != nil {
		return fmt.Errorf("data: dataset %q: %w", d.Name, err)
	}
	if d.Polygons != nil && len(d.Polygons) != d.N() {
		return fmt.Errorf("data: dataset %q has %d polygons for %d areas", d.Name, len(d.Polygons), d.N())
	}
	if len(d.AttrNames) != len(d.Cols) {
		return fmt.Errorf("data: dataset %q has %d attr names but %d columns", d.Name, len(d.AttrNames), len(d.Cols))
	}
	for i, col := range d.Cols {
		if len(col) != d.N() {
			return fmt.Errorf("data: column %q has %d values for %d areas", d.AttrNames[i], len(col), d.N())
		}
		for j, v := range col {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("data: column %q has non-finite value at area %d", d.AttrNames[i], j)
			}
		}
	}
	if d.Dissimilarity != "" && d.Column(d.Dissimilarity) == nil {
		return fmt.Errorf("data: dissimilarity attribute %q not found", d.Dissimilarity)
	}
	for _, name := range d.DissimilarityAttrs {
		if d.Column(name) == nil {
			return fmt.Errorf("data: dissimilarity attribute %q not found", name)
		}
	}
	return nil
}

// Split cuts the dataset into one sub-dataset per part, in one pass over
// its contiguity graph and columns. members[c] lists part c's areas in
// local-id order, part[a] is area a's part and local[a] its index in
// members[part[a]]; the three must agree. Each sub-dataset keeps the name,
// attribute names and dissimilarity configuration, its areas' polygons and
// values, and the edges inside its part, as ascending local-id lists. The
// shard planners build their sub-instances with it.
func (d *Dataset) Split(part, local []int, members [][]int) []*Dataset {
	graphs := d.g.Split(part, local, members)
	out := make([]*Dataset, len(members))
	for c, ids := range members {
		sub := &Dataset{
			Name:               d.Name,
			Dissimilarity:      d.Dissimilarity,
			DissimilarityAttrs: append([]string(nil), d.DissimilarityAttrs...),
			AttrNames:          append([]string(nil), d.AttrNames...),
			g:                  *graphs[c],
		}
		if d.Polygons != nil {
			sub.Polygons = make([]geom.Polygon, len(ids))
			for i, a := range ids {
				sub.Polygons[i] = d.Polygons[a]
			}
		}
		// One arena holds every column of the part.
		m := len(ids)
		vals := make([]float64, len(d.Cols)*m)
		sub.Cols = make([][]float64, len(d.Cols))
		for k, src := range d.Cols {
			col := vals[k*m : (k+1)*m : (k+1)*m]
			for i, a := range ids {
				col[i] = src[a]
			}
			sub.Cols[k] = col
		}
		out[c] = sub
	}
	return out
}

// Stats summarizes one attribute column.
type Stats struct {
	Count          int
	Min, Max, Mean float64
	Sum            float64
}

// ColumnStats computes summary statistics for the named column.
func (d *Dataset) ColumnStats(name string) (Stats, error) {
	col := d.Column(name)
	if col == nil {
		return Stats{}, fmt.Errorf("data: column %q not found", name)
	}
	s := Stats{Count: len(col), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range col {
		s.Sum += v
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	} else {
		s.Min, s.Max = 0, 0
	}
	return s, nil
}
