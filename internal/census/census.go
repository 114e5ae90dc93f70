// Package census is the data substrate standing in for the paper's 2010 US
// census tract datasets.
//
// The paper evaluates on nine real datasets (census tracts of LA City, LA
// County, Southern California, California, and five multi-state unions, see
// Table I) joined with census attributes (POP16UP, EMPLOYED, TOTALPOP,
// HOUSEHOLDS). Those shapefiles and attribute tables are not redistributable
// here, so this package generates deterministic synthetic equivalents:
//
//   - Geometry: jittered polygon lattices organized into "states"; large
//     datasets contain several connected components (like real tract data
//     with islands), which EMP explicitly supports.
//   - Attributes: lognormal draws with a smooth spatial field, calibrated so
//     the distributional facts the paper relies on hold — EMPLOYED is
//     positively skewed with the bulk under 4k and outliers around 6.1k
//     (Fig. 8), POP16UP quantiles make the Table III seed counts land in
//     the right regimes, and TOTALPOP averages ~3.2k per tract so the SUM
//     sweeps of Table IV produce comparable region sizes.
//
// Everything is reproducible from a seed; the named datasets use seed 1.
package census

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"emp/internal/data"
	"emp/internal/fault"
	"emp/internal/geom"
)

// Attribute names shared with the paper's Table II.
const (
	AttrTotalPop   = "TOTALPOP"
	AttrPop16Up    = "POP16UP"
	AttrEmployed   = "EMPLOYED"
	AttrHouseholds = "HOUSEHOLDS"
	// Extra attributes used by the intro's example applications.
	AttrIncome   = "INCOME"
	AttrTransit  = "TRANSIT"
	AttrCalls    = "CALLS"
	AttrWorkload = "WORKLOAD"
)

// DatasetSize describes one of the paper's nine named datasets.
type DatasetSize struct {
	// Areas is the number of census tracts (paper Table I and Section VII-A).
	Areas int
	// States is the number of states covered; it drives the block layout.
	States int
	// Components is the number of connected components the synthetic
	// layout produces (real tract data is also not always one component).
	Components int
}

// Sizes lists the nine evaluation datasets plus the single-component
// variants of the large ones. Keys "1k" ... "50k" are the names used
// throughout the paper; the "Nk1" presets keep the same area and state
// counts but lay every state out grid-connected in one component — the
// shape cut-based sharding targets, where component sharding has nothing
// to split.
var Sizes = map[string]DatasetSize{
	"1k":   {Areas: 1012, States: 1, Components: 1},
	"2k":   {Areas: 2344, States: 1, Components: 1},
	"4k":   {Areas: 3947, States: 1, Components: 1},
	"8k":   {Areas: 8049, States: 1, Components: 2},
	"10k":  {Areas: 10255, States: 3, Components: 2},
	"20k":  {Areas: 20570, States: 13, Components: 3},
	"30k":  {Areas: 29887, States: 18, Components: 3},
	"40k":  {Areas: 40214, States: 25, Components: 4},
	"50k":  {Areas: 49943, States: 30, Components: 5},
	"30k1": {Areas: 29887, States: 18, Components: 1},
	"40k1": {Areas: 40214, States: 25, Components: 1},
	"50k1": {Areas: 49943, States: 30, Components: 1},
}

// paperNames lists the paper's nine Table I datasets in area order; the
// single-component variants are deliberately absent.
var paperNames = []string{"1k", "2k", "4k", "8k", "10k", "20k", "30k", "40k", "50k"}

// PaperSizeNames returns the paper's nine dataset names ordered by area
// count, excluding the synthetic single-component "Nk1" variants. Use this
// for reproductions of the paper's tables; use SizeNames for the full
// generator inventory.
func PaperSizeNames() []string {
	return append([]string(nil), paperNames...)
}

// SizeNames returns the dataset names ordered by area count, ties broken by
// name so the listing is stable (the "Nk1" single-component variants share
// their base preset's area count).
func SizeNames() []string {
	names := make([]string, 0, len(Sizes))
	for n := range Sizes {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if Sizes[names[i]].Areas != Sizes[names[j]].Areas {
			return Sizes[names[i]].Areas < Sizes[names[j]].Areas
		}
		return names[i] < names[j]
	})
	return names
}

// Options configures synthetic dataset generation.
type Options struct {
	// Name labels the dataset.
	Name string
	// Areas is the total number of areas (required, > 0).
	Areas int
	// States is the number of state blocks; 0 means 1.
	States int
	// Components is the number of connected components; 0 means 1. Must
	// not exceed States (each component holds >= 1 state).
	Components int
	// Seed drives all randomness. The same options always produce the
	// same dataset.
	Seed int64
	// Jitter perturbs lattice vertices (fraction of cell size); negative
	// means the default 0.25.
	Jitter float64
}

// Generate builds a synthetic census dataset.
func Generate(opt Options) (*data.Dataset, error) {
	if err := fault.Inject("census.generate"); err != nil {
		return nil, fmt.Errorf("census: generating %q: %w", opt.Name, err)
	}
	if opt.Areas <= 0 {
		return nil, fmt.Errorf("census: Areas must be positive, got %d", opt.Areas)
	}
	states := opt.States
	if states <= 0 {
		states = 1
	}
	if states > opt.Areas {
		states = opt.Areas
	}
	comps := opt.Components
	if comps <= 0 {
		comps = 1
	}
	if comps > states {
		return nil, fmt.Errorf("census: Components (%d) cannot exceed States (%d)", comps, states)
	}
	jitter := opt.Jitter
	if jitter < 0 {
		jitter = 0.25
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	polys := layoutStates(opt.Areas, states, comps, jitter, rng)
	// Contiguity reads only the polygons and the attribute draws only the
	// centroids and the rng, so the two overlap; the draws keep their order.
	adj := make(chan [][]int, 1)
	go func() { adj <- geom.Adjacency(polys, geom.Rook) }()
	cols := synthesizeAttributes(polys, rng)
	d, err := data.New(opt.Name, <-adj)
	if err != nil {
		return nil, fmt.Errorf("census: generating %q: %w", opt.Name, err)
	}
	d.Polygons = polys
	d.Dissimilarity = AttrHouseholds
	for _, c := range cols {
		if err := d.AddColumn(c.name, c.col); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Named generates one of the paper's nine datasets by name with the
// canonical seed.
func Named(name string) (*data.Dataset, error) {
	return NamedSeeded(name, 1)
}

// NamedSeeded generates a named dataset with a custom seed.
func NamedSeeded(name string, seed int64) (*data.Dataset, error) {
	sz, ok := Sizes[name]
	if !ok {
		return nil, fmt.Errorf("census: unknown dataset %q (known: %v)", name, SizeNames())
	}
	comps := sz.Components
	if comps > sz.States {
		// Some inventory entries (e.g. "8k") record more components than
		// state blocks; clamp like Scaled does instead of failing.
		comps = sz.States
	}
	return Generate(Options{
		Name:       name,
		Areas:      sz.Areas,
		States:     sz.States,
		Components: comps,
		Seed:       seed,
		Jitter:     -1,
	})
}

// CheckScale reports whether scale is a valid scale factor for Scaled: it
// must lie in (0, 1]. Commands taking a -scale flag check it up front.
func CheckScale(scale float64) error {
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("scale must be in (0, 1], got %g", scale)
	}
	return nil
}

// Scaled generates a named dataset shrunk to scale*Areas areas (at least 30),
// preserving the state/component structure. Used by the benchmark harness to
// keep the large-dataset experiments tractable on small machines while
// keeping the shape of the scalability curves.
func Scaled(name string, scale float64, seed int64) (*data.Dataset, error) {
	sz, ok := Sizes[name]
	if !ok {
		return nil, fmt.Errorf("census: unknown dataset %q", name)
	}
	if err := CheckScale(scale); err != nil {
		return nil, fmt.Errorf("census: %w", err)
	}
	areas := int(math.Round(float64(sz.Areas) * scale))
	if areas < 30 {
		areas = 30
	}
	states, comps := sz.States, sz.Components
	if states > areas {
		states = areas
	}
	if comps > states {
		comps = states
	}
	return Generate(Options{
		Name:       name,
		Areas:      areas,
		States:     states,
		Components: comps,
		Seed:       seed,
		Jitter:     -1,
	})
}

// layoutStates places state lattice blocks left to right. States within the
// same component abut exactly (sharing full border edges); a horizontal gap
// separates components so no edges are shared across them.
func layoutStates(areas, states, comps int, jitter float64, rng *rand.Rand) []geom.Polygon {
	// Distribute areas over states as evenly as possible.
	counts := make([]int, states)
	base, rem := areas/states, areas%states
	for i := range counts {
		counts[i] = base
		if i < rem {
			counts[i]++
		}
	}
	// Group states into components: contiguous runs of the state list.
	compOf := make([]int, states)
	for i := range compOf {
		compOf[i] = i * comps / states
	}
	// All blocks share the same row count so abutting borders line up.
	perState := areas / states
	rows := int(math.Round(math.Sqrt(float64(perState))))
	if rows < 1 {
		rows = 1
	}
	var polys []geom.Polygon
	x := 0.0
	for s := 0; s < states; s++ {
		if s > 0 && compOf[s] != compOf[s-1] {
			x += 2 // gap: new connected component
		}
		cols := (counts[s] + rows - 1) / rows
		block := geom.Lattice(geom.LatticeOptions{
			Cols:     cols,
			Rows:     rows,
			Cells:    counts[s],
			Jitter:   jitter,
			Rng:      rng,
			OriginX:  x,
			CellSize: 1,
		})
		polys = append(polys, block...)
		x += float64(cols)
	}
	return polys
}

// lognormal draws exp(N(mu, sigma^2)) using the rng.
func lognormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// spatialField returns a smooth multiplicative factor in roughly
// [1/amplitude, amplitude] that varies slowly across space, giving the
// attributes the spatial autocorrelation real census data has.
type spatialField struct {
	fx, fy, px, py, amp float64
}

func newSpatialField(rng *rand.Rand, extent float64, amp float64) spatialField {
	period := extent/3 + 1
	return spatialField{
		fx:  2 * math.Pi / period * (0.8 + 0.4*rng.Float64()),
		fy:  2 * math.Pi / period * (0.8 + 0.4*rng.Float64()),
		px:  rng.Float64() * 2 * math.Pi,
		py:  rng.Float64() * 2 * math.Pi,
		amp: amp,
	}
}

func (f spatialField) at(p geom.Point) float64 {
	v := (math.Sin(f.fx*p.X+f.px) + math.Sin(f.fy*p.Y+f.py)) / 2
	return math.Exp(f.amp * v)
}

// column is one named attribute column.
type column struct {
	name string
	col  []float64
}

// synthesizeAttributes draws the census-like attribute columns for the
// polygons, in dataset column order.
//
// Calibration targets (see package comment):
//
//	TOTALPOP:  lognormal(ln 4100, 0.33) — tract mean ≈ 4.4k (LA County
//	           tracts average ~4.5k people).
//	POP16UP:   TOTALPOP × U[0.72, 0.84] — quantiles P(≤2k)≈0.10,
//	           P(≤3.5k)≈0.62, P(≤5k)≈0.93 as implied by Table III.
//	EMPLOYED:  lognormal(ln 1800, 0.40), capped at min(POP16UP, 6149) —
//	           positively skewed, bulk < 4k (Fig. 8), overall mean inside
//	           the default AVG range [1.5k, 3.5k], median < 2k, and only
//	           weakly correlated with POP16UP so that extrema seeds
//	           frequently satisfy the AVG range directly (Table III shows
//	           p(MA)/p(M) ≈ 0.7 across seed pools, which requires this).
//	HOUSEHOLDS: TOTALPOP / (2.8 ± noise) — dissimilarity attribute.
//	INCOME:    lognormal(ln 3800, 0.30) — monthly income for the COVID
//	           policy example (AVG range [3k, 5k] is satisfiable).
//	TRANSIT:   lognormal(ln 700, 0.80) — heavy-tailed transit ridership.
//	CALLS:     lognormal(ln 120, 0.60) — patrol calls for service.
//	WORKLOAD:  50 + U[0,100] — patrol workload units.
func synthesizeAttributes(polys []geom.Polygon, rng *rand.Rand) []column {
	n := len(polys)
	ext := geom.EmptyBBox()
	cents := make([]geom.Point, n)
	for i, pg := range polys {
		cents[i] = pg.Centroid()
		ext.Extend(cents[i])
	}
	extent := math.Max(ext.Width(), ext.Height())
	popField := newSpatialField(rng, extent, 0.25)
	empField := newSpatialField(rng, extent, 0.35)
	incField := newSpatialField(rng, extent, 0.30)
	trnField := newSpatialField(rng, extent, 0.50)

	totalpop := make([]float64, n)
	pop16up := make([]float64, n)
	employed := make([]float64, n)
	households := make([]float64, n)
	income := make([]float64, n)
	transit := make([]float64, n)
	calls := make([]float64, n)
	workload := make([]float64, n)

	muPop, muEmp, muInc := math.Log(4100), math.Log(1800), math.Log(3800)
	muTrn, muCalls := math.Log(700), math.Log(120)
	for i := 0; i < n; i++ {
		c := cents[i]
		tp := lognormal(rng, muPop, 0.33) * popField.at(c)
		if tp > 15000 {
			tp = 15000
		}
		totalpop[i] = math.Round(tp)
		p16 := totalpop[i] * (0.72 + 0.12*rng.Float64())
		pop16up[i] = math.Round(p16)
		emp := lognormal(rng, muEmp, 0.40) * empField.at(c)
		if emp > pop16up[i] {
			emp = pop16up[i]
		}
		if emp > 6149 {
			emp = 6149
		}
		employed[i] = math.Round(emp)
		households[i] = math.Round(totalpop[i] / (2.8 + 0.4*(rng.Float64()-0.5)))
		income[i] = math.Round(lognormal(rng, muInc, 0.30) * incField.at(c))
		transit[i] = math.Round(lognormal(rng, muTrn, 0.80) * trnField.at(c))
		calls[i] = math.Round(lognormal(rng, muCalls, 0.60))
		workload[i] = math.Round(50 + 100*rng.Float64())
	}

	return []column{
		{AttrTotalPop, totalpop},
		{AttrPop16Up, pop16up},
		{AttrEmployed, employed},
		{AttrHouseholds, households},
		{AttrIncome, income},
		{AttrTransit, transit},
		{AttrCalls, calls},
		{AttrWorkload, workload},
	}
}
