package render

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"

	"emp/internal/census"
	"emp/internal/data"
)

func TestSVGOutput(t *testing.T) {
	ds, err := census.Generate(census.Options{Name: "svg", Areas: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	assignment := make([]int, ds.N())
	for i := range assignment {
		assignment[i] = i % 7
	}
	assignment[3] = -1

	var buf bytes.Buffer
	if err := SVG(&buf, ds, assignment, Options{Width: 400}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, "<polygon"); got != ds.N() {
		t.Errorf("polygon count = %d, want %d", got, ds.N())
	}
	if !strings.Contains(out, "#d9d9d9") {
		t.Error("unassigned gray fill missing")
	}
	// Output is well-formed XML.
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		if _, err := dec.Token(); err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("invalid XML: %v", err)
		}
	}
}

func TestSVGErrors(t *testing.T) {
	ds, err := census.Generate(census.Options{Name: "svg", Areas: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SVG(&buf, ds, []int{0}, Options{}); err == nil {
		t.Error("short assignment accepted")
	}
	bare, err := data.New("bare", [][]int{nil})
	if err != nil {
		t.Fatal(err)
	}
	if err := SVG(&buf, bare, []int{0}, Options{}); err == nil {
		t.Error("polygon-less dataset accepted")
	}
}

func TestSVGDefaults(t *testing.T) {
	ds, err := census.Generate(census.Options{Name: "svg", Areas: 9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	assignment := make([]int, ds.N())
	var buf bytes.Buffer
	if err := SVG(&buf, ds, assignment, Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `width="800"`) {
		t.Error("default width not applied")
	}
	if !strings.Contains(buf.String(), `fill="#ffffff"`) {
		t.Error("default background not applied")
	}
}

func TestRegionColorsDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 24; i++ {
		c := regionColor(i, 24)
		if seen[c] {
			t.Errorf("color %s repeats within 24 regions", c)
		}
		seen[c] = true
		if len(c) != 7 || c[0] != '#' {
			t.Errorf("bad color format %q", c)
		}
	}
}

func TestHSLToRGBPrimaries(t *testing.T) {
	tests := []struct {
		h       float64
		s, l    float64
		r, g, b uint8
	}{
		{0, 1, 0.5, 255, 0, 0},
		{120, 1, 0.5, 0, 255, 0},
		{240, 1, 0.5, 0, 0, 255},
		{0, 0, 1, 255, 255, 255},
		{0, 0, 0, 0, 0, 0},
	}
	for _, tc := range tests {
		r, g, b := hslToRGB(tc.h, tc.s, tc.l)
		if r != tc.r || g != tc.g || b != tc.b {
			t.Errorf("hsl(%v,%v,%v) = %d,%d,%d want %d,%d,%d", tc.h, tc.s, tc.l, r, g, b, tc.r, tc.g, tc.b)
		}
	}
}
