package census

import (
	"math"
	"sort"
	"testing"

	"emp/internal/stats"
)

func TestSizeNamesOrdered(t *testing.T) {
	names := SizeNames()
	if len(names) != 12 {
		t.Fatalf("got %d names, want 12", len(names))
	}
	for i := 1; i < len(names); i++ {
		a, b := Sizes[names[i-1]], Sizes[names[i]]
		if a.Areas > b.Areas || (a.Areas == b.Areas && names[i-1] >= names[i]) {
			t.Errorf("names not ordered by (size, name) at %d: %v", i, names)
		}
	}
	if names[0] != "1k" || names[len(names)-1] != "50k1" {
		t.Errorf("names = %v", names)
	}
}

func TestSingleComponentPresets(t *testing.T) {
	for _, name := range []string{"30k1", "40k1", "50k1"} {
		base := Sizes[name[:len(name)-1]]
		sz, ok := Sizes[name]
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		if sz.Areas != base.Areas || sz.States != base.States {
			t.Errorf("%s = %+v, want areas/states of %+v", name, sz, base)
		}
		if sz.Components != 1 {
			t.Errorf("%s has %d components, want 1", name, sz.Components)
		}
	}
	// The layout must actually deliver one connected component (scaled down
	// to keep the test fast; Scaled preserves the component structure).
	d, err := Scaled("30k1", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Components(); got != 1 {
		t.Errorf("30k1 generated %d components, want 1", got)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Options{Areas: 0}); err == nil {
		t.Error("zero areas accepted")
	}
	if _, err := Generate(Options{Areas: 10, States: 2, Components: 3}); err == nil {
		t.Error("components > states accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	opt := Options{Name: "t", Areas: 200, States: 2, Components: 1, Seed: 7}
	d1, err := Generate(opt)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(opt)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := d1.Column(AttrEmployed), d2.Column(AttrEmployed)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("not deterministic at area %d: %v vs %v", i, c1[i], c2[i])
		}
	}
	d3, err := Generate(Options{Name: "t", Areas: 200, States: 2, Components: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	c3 := d3.Column(AttrEmployed)
	for i := range c1 {
		if c1[i] != c3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical attributes")
	}
}

func TestGenerateStructure(t *testing.T) {
	tests := []struct {
		name       string
		areas      int
		states     int
		components int
	}{
		{"single", 150, 1, 1},
		{"two states one comp", 300, 2, 1},
		{"three states two comps", 450, 3, 2},
		{"five comps", 1000, 10, 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Generate(Options{Name: tc.name, Areas: tc.areas, States: tc.states, Components: tc.components, Seed: 3, Jitter: -1})
			if err != nil {
				t.Fatal(err)
			}
			if d.N() != tc.areas {
				t.Errorf("N = %d, want %d", d.N(), tc.areas)
			}
			if err := d.Validate(); err != nil {
				t.Errorf("Validate: %v", err)
			}
			if got := d.Components(); got != tc.components {
				t.Errorf("Components = %d, want %d", got, tc.components)
			}
			// Planar rook lattices never exceed 4 neighbors.
			for i := 0; i < d.N(); i++ {
				if deg := d.Graph().Degree(i); deg > 4 {
					t.Errorf("area %d has %d neighbors", i, deg)
				}
			}
		})
	}
}

// TestNamedDatasets generates every named dataset in full and checks it
// against its inventory entry: the area count and the number of connected
// components the inventory reports. Datasets larger than 20k are skipped
// under -short.
func TestNamedDatasets(t *testing.T) {
	for _, name := range SizeNames() {
		t.Run(name, func(t *testing.T) {
			sz := Sizes[name]
			if sz.Areas > Sizes["20k"].Areas && testing.Short() {
				t.Skip("larger than 20k; skipped under -short")
			}
			d, err := Named(name)
			if err != nil {
				t.Fatal(err)
			}
			if d.N() != sz.Areas {
				t.Errorf("N = %d, want %d", d.N(), sz.Areas)
			}
			if got := d.Components(); got != sz.Components {
				t.Errorf("components = %d, want %d", got, sz.Components)
			}
			if err := d.Validate(); err != nil {
				t.Error(err)
			}
			if d.Dissimilarity != AttrHouseholds {
				t.Errorf("dissimilarity = %q", d.Dissimilarity)
			}
		})
	}
	if _, err := Named("3k"); err == nil {
		t.Error("unknown dataset name accepted")
	}
}

func TestScaled(t *testing.T) {
	d, err := Scaled("50k", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() < 30 || d.N() > 1000 {
		t.Errorf("scaled N = %d", d.N())
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
	if _, err := Scaled("50k", 0, 1); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := Scaled("50k", 1.5, 1); err == nil {
		t.Error("scale > 1 accepted")
	}
	if _, err := Scaled("nope", 0.5, 1); err == nil {
		t.Error("unknown name accepted")
	}
	// Tiny scale: floors at >= 30 areas and component count adapts.
	tiny, err := Scaled("50k", 0.0001, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tiny.N() < 30 {
		t.Errorf("tiny N = %d, want >= 30", tiny.N())
	}
}

func TestCheckScale(t *testing.T) {
	for _, scale := range []float64{0, -0.5, 1.5, math.NaN()} {
		if err := CheckScale(scale); err == nil {
			t.Errorf("scale %g accepted", scale)
		}
	}
	for _, scale := range []float64{0.25, 1} {
		if err := CheckScale(scale); err != nil {
			t.Errorf("scale %g rejected: %v", scale, err)
		}
	}
}

// TestAttributeCalibration pins the distributional facts the paper's
// experiments rely on (see package comment). Uses the default "2k" dataset.
func TestAttributeCalibration(t *testing.T) {
	d, err := Named("2k")
	if err != nil {
		t.Fatal(err)
	}
	n := float64(d.N())

	// EMPLOYED: positively skewed, bulk < 4k, outliers <= 6149 (Fig. 8),
	// mean within the default AVG range, median < 2k (drives the hard
	// 3k±1k case).
	emp := d.Column(AttrEmployed)
	st, _ := d.ColumnStats(AttrEmployed)
	if st.Mean < 1500 || st.Mean > 3500 {
		t.Errorf("EMPLOYED mean = %.0f, want within default AVG range [1500,3500]", st.Mean)
	}
	if st.Max > 6149 {
		t.Errorf("EMPLOYED max = %.0f, want <= 6149", st.Max)
	}
	sorted := append([]float64(nil), emp...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	if median >= 2000 {
		t.Errorf("EMPLOYED median = %.0f, want < 2000 (paper: >half of areas below l=2k)", median)
	}
	below4k := 0
	for _, v := range emp {
		if v < 4000 {
			below4k++
		}
	}
	if frac := float64(below4k) / n; frac < 0.90 {
		t.Errorf("EMPLOYED fraction below 4k = %.2f, want >= 0.90", frac)
	}
	mean := st.Mean
	if median >= mean {
		t.Errorf("EMPLOYED median %.0f >= mean %.0f: not positively skewed", median, mean)
	}

	// POP16UP quantiles implied by Table III seed counts.
	p16 := d.Column(AttrPop16Up)
	q := func(thresh float64) float64 {
		c := 0
		for _, v := range p16 {
			if v <= thresh {
				c++
			}
		}
		return float64(c) / n
	}
	if f := q(2000); f < 0.05 || f > 0.25 {
		t.Errorf("P(POP16UP<=2k) = %.2f, want ~0.1", f)
	}
	if f := q(3500); f < 0.45 || f > 0.75 {
		t.Errorf("P(POP16UP<=3.5k) = %.2f, want ~0.62", f)
	}
	if f := q(5000); f < 0.85 {
		t.Errorf("P(POP16UP<=5k) = %.2f, want ~0.93", f)
	}

	// TOTALPOP: mean ~4.4k so SUM >= 20k regions average ~5 areas.
	tp, _ := d.ColumnStats(AttrTotalPop)
	if tp.Mean < 3500 || tp.Mean > 5500 {
		t.Errorf("TOTALPOP mean = %.0f, want ~4.4k", tp.Mean)
	}
	if tp.Min < 0 {
		t.Errorf("TOTALPOP min negative")
	}

	// INCOME satisfiable for AVG in [3000, 5000].
	inc, _ := d.ColumnStats(AttrIncome)
	if inc.Mean < 3000 || inc.Mean > 5000 {
		t.Errorf("INCOME mean = %.0f, want within [3000,5000]", inc.Mean)
	}

	// All columns non-negative.
	for _, name := range d.AttrNames {
		s, _ := d.ColumnStats(name)
		if s.Min < 0 {
			t.Errorf("%s has negative values (min %.1f)", name, s.Min)
		}
	}
}

func TestSpatialAutocorrelation(t *testing.T) {
	// Neighbor attribute correlation should be positive: the spatial field
	// makes nearby tracts similar. Compare mean |diff| between neighbors
	// vs between random pairs.
	d, err := Generate(Options{Name: "sa", Areas: 900, Seed: 11, Jitter: -1})
	if err != nil {
		t.Fatal(err)
	}
	emp := d.Column(AttrEmployed)
	var nbDiff, nbCount float64
	for i := 0; i < d.N(); i++ {
		for _, j := range d.Graph().Neighbors(i) {
			if int(j) > i {
				nbDiff += math.Abs(emp[i] - emp[j])
				nbCount++
			}
		}
	}
	nbDiff /= nbCount
	var rndDiff, rndCount float64
	for i := 0; i < d.N(); i += 3 {
		j := (i*7 + 311) % d.N()
		if i != j {
			rndDiff += math.Abs(emp[i] - emp[j])
			rndCount++
		}
	}
	rndDiff /= rndCount
	if nbDiff >= rndDiff {
		t.Errorf("neighbor mean |diff| %.1f >= random-pair %.1f: no spatial autocorrelation", nbDiff, rndDiff)
	}
	// Moran's I must be clearly positive (real census tracts typically
	// score 0.3-0.7 on socio-economic attributes).
	if i := stats.MoranI(emp, d.Graph()); i < 0.1 {
		t.Errorf("Moran's I = %.3f, want clearly positive", i)
	}
}
