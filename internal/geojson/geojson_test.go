package geojson

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"emp/internal/census"
	"emp/internal/data"
	"emp/internal/geom"
)

func TestWriteReadRoundTrip(t *testing.T) {
	ds, err := census.Generate(census.Options{Name: "gj", Areas: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	assignment := make([]int, ds.N())
	for i := range assignment {
		assignment[i] = i % 5
	}
	assignment[0] = -1

	var buf bytes.Buffer
	if err := Write(&buf, ds, assignment); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"FeatureCollection"`) || !strings.Contains(out, `"region"`) {
		t.Error("missing FeatureCollection or region property")
	}

	back, err := Read(strings.NewReader(out), "back", geom.Rook)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ds.N() {
		t.Fatalf("N = %d, want %d", back.N(), ds.N())
	}
	// Adjacency survives because coordinates round-trip through JSON
	// numbers exactly (encoding/json preserves float64).
	for i := 0; i < ds.N(); i++ {
		if got, want := back.Graph().Neighbors(i), ds.Graph().Neighbors(i); len(got) != len(want) {
			t.Errorf("adjacency differs at %d: %v vs %v", i, got, want)
		}
	}
	orig := ds.Column(census.AttrTotalPop)
	got := back.Column(census.AttrTotalPop)
	if got == nil {
		t.Fatalf("TOTALPOP column lost; have %v", back.AttrNames)
	}
	for i := range orig {
		if math.Abs(orig[i]-got[i]) > 1e-9 {
			t.Errorf("TOTALPOP[%d] = %v, want %v", i, got[i], orig[i])
			break
		}
	}
}

func TestWriteWithoutAssignment(t *testing.T) {
	ds, err := census.Generate(census.Options{Name: "gj", Areas: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, ds, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"region"`) {
		t.Error("region property present without assignment")
	}
}

func TestWriteErrors(t *testing.T) {
	ds, err := census.Generate(census.Options{Name: "gj", Areas: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, ds, []int{1, 2}); err == nil {
		t.Error("short assignment accepted")
	}
	bare, err := data.New("bare", [][]int{nil})
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(&buf, bare, nil); err == nil {
		t.Error("polygon-less dataset accepted")
	}
}

func TestReadMultiPolygon(t *testing.T) {
	in := `{
	  "type": "FeatureCollection",
	  "features": [
	    {"type":"Feature","geometry":{"type":"MultiPolygon","coordinates":
	      [[[[0,0],[1,0],[1,1],[0,1],[0,0]]],[[[5,5],[5.1,5],[5.1,5.1],[5,5.1],[5,5]]]]},
	     "properties":{"POP": 7}},
	    {"type":"Feature","geometry":{"type":"Polygon","coordinates":
	      [[[1,0],[2,0],[2,1],[1,1],[1,0]]]},
	     "properties":{"POP": 9}}
	  ]}`
	ds, err := Read(strings.NewReader(in), "mp", geom.Rook)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 2 {
		t.Fatalf("N = %d", ds.N())
	}
	// The larger ring of the MultiPolygon (unit square) shares an edge
	// with the second feature.
	if nbs := ds.Graph().Neighbors(0); len(nbs) != 1 || nbs[0] != 1 {
		t.Errorf("adjacency of area 0 = %v", nbs)
	}
	if got := ds.Column("POP"); got[0] != 7 || got[1] != 9 {
		t.Errorf("POP = %v", got)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":        `{`,
		"wrong type":      `{"type":"Feature","features":[]}`,
		"no features":     `{"type":"FeatureCollection","features":[]}`,
		"bad geometry":    `{"type":"FeatureCollection","features":[{"type":"Feature","geometry":{"type":"Point","coordinates":[1,2]},"properties":{}}]}`,
		"degenerate ring": `{"type":"FeatureCollection","features":[{"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[0,0],[1,1]]]},"properties":{}}]}`,
		"bad coords":      `{"type":"FeatureCollection","features":[{"type":"Feature","geometry":{"type":"Polygon","coordinates":"x"},"properties":{}}]}`,
		"missing prop": `{"type":"FeatureCollection","features":[
		  {"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[0,0],[1,0],[1,1],[0,0]]]},"properties":{"A":1}},
		  {"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[1,0],[2,0],[2,1],[1,0]]]},"properties":{}}]}`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(in), "x", geom.Rook); err == nil {
				t.Error("accepted invalid input")
			}
		})
	}
}

func TestReadSkipsIDAndRegionProps(t *testing.T) {
	in := `{"type":"FeatureCollection","features":[
	  {"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[0,0],[1,0],[1,1],[0,1],[0,0]]]},
	   "properties":{"id":0,"region":2,"POP":5}}]}`
	ds, err := Read(strings.NewReader(in), "x", geom.Rook)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Column("id") != nil || ds.Column("region") != nil {
		t.Error("id/region should not become attribute columns")
	}
	if ds.Column("POP") == nil {
		t.Error("POP column missing")
	}
}
