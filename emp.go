// Package emp is a Go implementation of EMP — the enriched max-p-regions
// problem — and FaCT, the three-phase algorithm that solves it (Kang &
// Magdy, "EMP: Max-P Regionalization with Enriched Constraints", ICDE 2022).
//
// EMP groups spatial areas into the maximum number of spatially contiguous
// regions such that every region satisfies a set of SQL-style user-defined
// constraints — MIN, MAX, AVG, SUM and COUNT aggregates over spatially
// extensive attributes, each with a lower bound, an upper bound, or both —
// and, as a secondary objective, minimizes the regions' attribute
// heterogeneity. Areas that cannot join any valid region are returned as
// the unassigned set U0.
//
// # Quick start
//
//	ds, _ := emp.NamedDataset("2k") // synthetic census substrate
//	set, _ := emp.ParseConstraints(
//	    "MIN(POP16UP) <= 3000; AVG(EMPLOYED) in [1500,3500]; SUM(TOTALPOP) >= 20000")
//	sol, err := emp.Solve(ds, set, emp.Options{})
//	if err != nil { ... }
//	fmt.Println(sol.P, len(sol.UnassignedAreas()), sol.Heterogeneity())
//
// The facade re-exports the building blocks from the internal packages:
// datasets (polygon geometry + contiguity + attribute columns), constraint
// parsing, the FaCT solver, the classic max-p baseline, and an exact solver
// for tiny instances.
package emp

import (
	"context"
	"io"

	"emp/internal/azp"
	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/exact"
	"emp/internal/fact"
	"emp/internal/geojson"
	"emp/internal/geom"
	"emp/internal/maxp"
	"emp/internal/render"
	"emp/internal/report"
	"emp/internal/shapefile"
	"emp/internal/skater"
	"emp/internal/tabu"
)

// Dataset is a regionalization instance: areas with polygon boundaries,
// a contiguity graph (read through Graph), and named attribute columns.
type Dataset = data.Dataset

// Constraint is one user-defined constraint (f, s, l, u).
type Constraint = constraint.Constraint

// ConstraintSet is an ordered set of constraints forming an EMP query.
type ConstraintSet = constraint.Set

// Aggregate is an SQL-style aggregate function.
type Aggregate = constraint.Aggregate

// Aggregate functions supported by EMP constraints.
const (
	Min   = constraint.Min
	Max   = constraint.Max
	Avg   = constraint.Avg
	Sum   = constraint.Sum
	Count = constraint.Count
)

// Options tunes the FaCT solver; the zero value uses the paper's defaults
// (merge limit 3, tabu tenure 10, no-improvement budget = dataset size,
// random area pickup, one construction iteration).
type Options = fact.Config

// Feasibility is the report of FaCT's feasibility phase.
type Feasibility = fact.Feasibility

// ErrInfeasible is returned by Solve when no feasible solution exists.
var ErrInfeasible = fact.ErrInfeasible

// NewConstraint builds a two-sided constraint l <= f(attr) <= u.
func NewConstraint(f Aggregate, attr string, lower, upper float64) Constraint {
	return constraint.New(f, attr, lower, upper)
}

// AtLeast builds f(attr) >= l.
func AtLeast(f Aggregate, attr string, lower float64) Constraint {
	return constraint.AtLeast(f, attr, lower)
}

// AtMost builds f(attr) <= u.
func AtMost(f Aggregate, attr string, upper float64) Constraint {
	return constraint.AtMost(f, attr, upper)
}

// ParseConstraint parses one SQL-ish constraint expression such as
// "SUM(TOTALPOP) >= 20000" or "AVG(EMPLOYED) in [1500, 3500]".
func ParseConstraint(expr string) (Constraint, error) {
	return constraint.Parse(expr)
}

// ParseConstraints parses a semicolon- or newline-separated list of
// constraint expressions.
func ParseConstraints(exprs string) (ConstraintSet, error) {
	return constraint.ParseSet(exprs)
}

// Solution is the outcome of an EMP query.
type Solution struct {
	res *fact.Result
	// P is the number of regions (the primary EMP objective).
	P int
}

// Solve runs FaCT on the dataset under the constraint set. On hard
// infeasibility it returns an error wrapping ErrInfeasible together with a
// Solution carrying the feasibility report. It is SolveCtx without
// cancellation.
func Solve(ds *Dataset, set ConstraintSet, opt Options) (*Solution, error) {
	return SolveCtx(context.Background(), ds, set, opt)
}

// SolveCtx is Solve with cooperative cancellation: when the context is
// cancelled mid-solve the call returns an error wrapping ctx.Err() within
// one check interval instead of running to completion. Datasets whose
// contiguity graph has multiple connected components are solved as
// concurrent per-component shards on Options.Pool (see docs/SHARDING.md).
func SolveCtx(ctx context.Context, ds *Dataset, set ConstraintSet, opt Options) (*Solution, error) {
	res, err := fact.SolveCtx(ctx, ds, set, opt)
	if res == nil {
		return nil, err
	}
	return &Solution{res: res, P: res.P}, err
}

// Feasibility returns the phase-1 report.
func (s *Solution) Feasibility() *Feasibility { return s.res.Feasibility }

// Regions returns the member area ids of every region, one slice per
// region, ordered by region id.
func (s *Solution) Regions() [][]int {
	p := s.res.Partition
	if p == nil {
		return nil
	}
	out := make([][]int, 0, p.NumRegions())
	for _, id := range p.RegionIDs() {
		out = append(out, append([]int(nil), p.Region(id).Members...))
	}
	return out
}

// Assignment returns a dense region index per area (0-based) or -1 for
// unassigned areas.
func (s *Solution) Assignment() []int {
	if s.res.Partition == nil {
		return nil
	}
	return s.res.Partition.DenseAssignment()
}

// UnassignedAreas returns U0, the areas not assigned to any region.
func (s *Solution) UnassignedAreas() []int {
	if s.res.Partition == nil {
		return nil
	}
	return s.res.Partition.UnassignedAreas()
}

// Heterogeneity returns H(P) of the final solution.
func (s *Solution) Heterogeneity() float64 { return s.res.HeteroAfter }

// HeterogeneityBeforeLocalSearch returns H(P) after construction, before
// the Tabu phase.
func (s *Solution) HeterogeneityBeforeLocalSearch() float64 { return s.res.HeteroBefore }

// HeteroImprovement returns the local search's relative improvement.
func (s *Solution) HeteroImprovement() float64 { return s.res.HeteroImprovement() }

// Report is a per-region statistics summary of a solution.
type Report = report.Report

// Report builds the per-region statistics table (sizes, constraint
// aggregate values, heterogeneity and compactness contributions).
func (s *Solution) Report() *Report {
	if s.res.Partition == nil {
		return nil
	}
	return report.New(s.res.Partition)
}

// Stats exposes the solver's phase timings and counters.
func (s *Solution) Stats() SolveStats {
	return SolveStats{
		ConstructionSeconds: s.res.ConstructionTime.Seconds(),
		LocalSearchSeconds:  s.res.LocalSearchTime.Seconds(),
		TabuMoves:           s.res.TabuMoves,
		Iterations:          s.res.Iterations,
		Unassigned:          s.res.Unassigned,
	}
}

// SolveStats summarizes a solver run.
type SolveStats struct {
	ConstructionSeconds float64
	LocalSearchSeconds  float64
	TabuMoves           int
	Iterations          int
	Unassigned          int
}

// NamedDataset generates one of the paper's nine synthetic evaluation
// datasets by name: "1k", "2k", "4k", "8k", "10k", "20k", "30k", "40k",
// "50k" (see Table I of the paper and internal/census for calibration).
func NamedDataset(name string) (*Dataset, error) { return census.Named(name) }

// GenerateDataset builds a custom synthetic census dataset.
func GenerateDataset(opt census.Options) (*Dataset, error) { return census.Generate(opt) }

// DatasetOptions configures GenerateDataset.
type DatasetOptions = census.Options

// LoadDataset reads a dataset from a JSON file.
func LoadDataset(path string) (*Dataset, error) { return data.LoadJSON(path) }

// SaveDataset writes a dataset to a JSON file.
func SaveDataset(ds *Dataset, path string) error { return ds.SaveJSON(path) }

// ShapefileOptions configures shapefile import.
type ShapefileOptions = shapefile.LoadOptions

// LoadShapefile reads base+".shp" / base+".dbf" (ESRI shapefile + dBase
// attribute table — the format census tract data ships in) into a dataset,
// deriving contiguity from the polygon geometry.
func LoadShapefile(base string, opt ShapefileOptions) (*Dataset, error) {
	return shapefile.LoadDataset(base, opt)
}

// SaveShapefile writes the dataset as base+".shp" / base+".dbf".
func SaveShapefile(ds *Dataset, base string) error {
	return shapefile.SaveDataset(ds, base)
}

// WriteGeoJSON exports the dataset as a GeoJSON FeatureCollection; pass a
// solution's Assignment() to add a "region" property per area (nil for a
// plain dataset export).
func WriteGeoJSON(w io.Writer, ds *Dataset, assignment []int) error {
	return geojson.Write(w, ds, assignment)
}

// ReadGeoJSON imports a GeoJSON FeatureCollection of polygon features with
// numeric properties as a dataset, deriving rook contiguity geometrically.
func ReadGeoJSON(r io.Reader, name string) (*Dataset, error) {
	return geojson.Read(r, name, geom.Rook)
}

// RenderSVGOptions controls solution rendering.
type RenderSVGOptions = render.Options

// RenderSVG draws the dataset's polygons colored by the assignment (region
// index per area, -1 unassigned) as a standalone SVG image.
func RenderSVG(w io.Writer, ds *Dataset, assignment []int, opt RenderSVGOptions) error {
	return render.SVG(w, ds, assignment, opt)
}

// MaxPOptions tunes the classic max-p baseline solver.
type MaxPOptions = maxp.Config

// MaxPResult is the classic max-p baseline outcome.
type MaxPResult = maxp.Result

// SolveMaxP runs the classic max-p-regions baseline: maximize the number of
// contiguous regions with SUM(attr) >= threshold. It is the competitor the
// paper compares FaCT against (Table IV, Figures 12-13).
func SolveMaxP(ds *Dataset, attr string, threshold float64, opt MaxPOptions) (*MaxPResult, error) {
	return maxp.Solve(ds, attr, threshold, opt)
}

// Objective is the local-search optimization target. The default is the
// paper's heterogeneity H(P); assign Options.Objective to optimize spatial
// compactness or a weighted multi-criteria combination instead (the
// alternative objectives Section III of the paper mentions). A custom
// objective holding per-area state indexed by area id must also implement
// Reindex(ids []int) Objective, as CompactnessObjective does, so that a
// multi-component solve can re-index it to each component's areas.
type Objective = tabu.Objective

// HeterogeneityObjective is the default objective H(P).
type HeterogeneityObjective = tabu.Heterogeneity

// CompactnessObjective measures within-region centroid dispersion.
type CompactnessObjective = tabu.Compactness

// WeightedObjective linearly combines objectives.
type WeightedObjective = tabu.Weighted

// NewCompactnessObjective builds a compactness objective from the dataset's
// polygons.
func NewCompactnessObjective(ds *Dataset) *CompactnessObjective {
	return tabu.NewCompactness(ds.Polygons)
}

// AZPOptions tunes the AZP baseline.
type AZPOptions = azp.Config

// AZPResult is an AZP baseline solution.
type AZPResult = azp.Result

// SolveAZP partitions the dataset into exactly k contiguous regions with
// AZP-Tabu (random contiguous initialization + Tabu improvement) — the
// greedy-aggregation region-building lineage in the paper's related work.
func SolveAZP(ds *Dataset, k int, opt AZPOptions) (*AZPResult, error) {
	return azp.Solve(ds, k, opt)
}

// SKATERResult is a tree-partition baseline solution.
type SKATERResult = skater.Result

// SolveSKATER partitions the dataset into exactly k contiguous regions with
// the SKATER tree-partition heuristic (minimum spanning tree + greedy edge
// cuts minimizing within-region dissimilarity variance). It is the
// fixed-k, constraint-free baseline from the regionalization literature the
// paper's related work surveys.
func SolveSKATER(ds *Dataset, k int) (*SKATERResult, error) {
	return skater.Solve(ds, k)
}

// ExactResult is the optimum of a tiny instance.
type ExactResult = exact.Result

// SolveExact exhaustively solves a tiny EMP instance (<= 12 areas); it
// stands in for the paper's Gurobi MIP formulation as ground truth.
func SolveExact(ds *Dataset, set ConstraintSet) (*ExactResult, error) {
	return exact.Solve(ds, set, exact.Options{})
}
