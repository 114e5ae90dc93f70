package region

import (
	"math"
	"testing"

	"emp/internal/data"
	"emp/internal/geom"
)

// exactVerdict builds the shared state of a 4x3 lattice whose dissimilarity
// columns hold the given values and returns its exactness verdict.
func exactVerdict(t *testing.T, cols ...[]float64) bool {
	t.Helper()
	ds := data.FromPolygons("x", geom.Lattice(geom.LatticeOptions{Cols: 4, Rows: 3}), geom.Rook)
	names := []string{"A", "B", "C"}[:len(cols)]
	for i, col := range cols {
		if err := ds.AddColumn(names[i], col); err != nil {
			t.Fatal(err)
		}
	}
	if len(cols) == 1 {
		ds.Dissimilarity = "A"
	} else {
		ds.DissimilarityAttrs = names
	}
	sh, err := NewShared(ds)
	if err != nil {
		t.Fatal(err)
	}
	return sh.HeteroExact()
}

// column returns 12 values: v at area 0, i at every other area i.
func column(v float64) []float64 {
	col := make([]float64, 12)
	for i := range col {
		col[i] = float64(i)
	}
	col[0] = v
	return col
}

// TestHeteroExactVerdict: integer dissimilarities are exact while
// n²·attrs·max|d| < 2^52 (n = 12 here), and not from the bound on;
// fractional values and the standardized columns of several dissimilarity
// attributes are not exact.
func TestHeteroExactVerdict(t *testing.T) {
	limit := math.Ldexp(1, 52) / (12 * 12) // max|d| bound for one attribute
	for _, tc := range []struct {
		name string
		cols [][]float64
		want bool
	}{
		{"small integers", [][]float64{column(7)}, true},
		{"negative integers", [][]float64{column(-40000)}, true},
		{"largest integer below the bound", [][]float64{column(math.Floor(limit) - 1)}, true},
		{"integer at the bound", [][]float64{column(math.Ceil(limit))}, false},
		{"integer far past the bound", [][]float64{column(math.Ldexp(1, 51))}, false},
		{"fractional value", [][]float64{column(0.5)}, false},
		{"NaN", [][]float64{column(math.NaN())}, false},
		{"infinity", [][]float64{column(math.Inf(1))}, false},
		// Standardizing divides each column by its standard deviation.
		{"scaled attributes", [][]float64{column(7), column(1000)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := exactVerdict(t, tc.cols...); got != tc.want {
				t.Errorf("HeteroExact = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestHeteroExactBoundCountsAttributes: the bound scales with the number of
// attributes, whose pair terms add up: two integer columns are exact only
// below half the one-column bound.
func TestHeteroExactBoundCountsAttributes(t *testing.T) {
	half := math.Ldexp(1, 52) / (12 * 12) / 2
	two := func(maxAbs float64) [][]float64 { return [][]float64{column(0), column(maxAbs)} }
	if !exactDissimilarities(two(math.Floor(half)-1), 12) {
		t.Error("two columns below half the bound judged inexact")
	}
	if exactDissimilarities(two(math.Ceil(half)), 12) {
		t.Error("two columns at half the bound judged exact")
	}
}
