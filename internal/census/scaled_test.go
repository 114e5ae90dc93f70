package census

import (
	"math"
	"reflect"
	"testing"
)

// TestScaledDeterministicPerSeed: the serving layer shares one generated
// dataset across every request with the same (name, scale, seed) cache key,
// so generation must be a pure function of those three values — and a
// different seed must actually produce a different substrate.
func TestScaledDeterministicPerSeed(t *testing.T) {
	a, err := Scaled("2k", 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Scaled("2k", 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != b.N() {
		t.Fatalf("same seed, different N: %d vs %d", a.N(), b.N())
	}
	if !reflect.DeepEqual(a.Graph(), b.Graph()) {
		t.Error("same seed produced different adjacency")
	}
	for _, attr := range []string{AttrTotalPop, AttrPop16Up} {
		if !reflect.DeepEqual(a.Column(attr), b.Column(attr)) {
			t.Errorf("same seed produced different %s column", attr)
		}
	}

	c, err := Scaled("2k", 0.1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() == a.N() && reflect.DeepEqual(a.Column(AttrTotalPop), c.Column(AttrTotalPop)) {
		t.Error("different seeds produced identical attributes")
	}
}

// TestScaledAreaCount: the area count must track round(scale * full size)
// with the 30-area floor, monotonically in scale.
func TestScaledAreaCount(t *testing.T) {
	full := Sizes["10k"].Areas
	prev := 0
	for _, scale := range []float64{0.05, 0.1, 0.25, 0.5} {
		ds, err := Scaled("10k", scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := int(math.Round(float64(full) * scale))
		if want < 30 {
			want = 30
		}
		if ds.N() != want {
			t.Errorf("scale %g: N = %d, want %d", scale, ds.N(), want)
		}
		if ds.N() <= prev {
			t.Errorf("scale %g: N = %d not larger than previous %d", scale, ds.N(), prev)
		}
		prev = ds.N()
	}
}

// TestScaledContiguity: a scaled substrate must keep a sound, symmetric
// adjacency graph with exactly the component structure of its full-size
// original (clamped when there are fewer areas/states than components) —
// otherwise scaled solves would face a differently-shaped contiguity
// problem than the full-size ones they stand in for.
func TestScaledContiguity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale float64
	}{
		{"2k", 0.1},   // single component
		{"10k", 0.1},  // two components
		{"50k", 0.05}, // five components across many states
	} {
		ds, err := Scaled(tc.name, tc.scale, 1)
		if err != nil {
			t.Fatalf("%s@%g: %v", tc.name, tc.scale, err)
		}
		g := ds.Graph()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s@%g: invalid graph: %v", tc.name, tc.scale, err)
		}
		_, count := g.Components()
		want := Sizes[tc.name].Components
		if states := Sizes[tc.name].States; want > states {
			want = states
		}
		if count != want {
			t.Errorf("%s@%g: %d components, want %d", tc.name, tc.scale, count, want)
		}
		// No isolated areas: every area can join some region.
		for a := 0; a < ds.N(); a++ {
			if g.Degree(a) == 0 {
				t.Fatalf("%s@%g: area %d has no neighbors", tc.name, tc.scale, a)
			}
		}
	}
}
