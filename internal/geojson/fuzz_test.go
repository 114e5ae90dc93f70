package geojson

import (
	"bytes"
	"testing"

	"emp/internal/data"
	"emp/internal/geom"
)

// FuzzRead checks the GeoJSON importer behind emp.ReadGeoJSON: it never
// panics, and every FeatureCollection it accepts, under either contiguity
// rule, gives a valid graph over [0, n) whose dataset JSON round-trips byte
// for byte.
func FuzzRead(f *testing.F) {
	for _, in := range []string{
		// The wrapped-id dataset document: not a FeatureCollection.
		`{"name":"wrap","n":4,"adjacency":[[1],[4294967296],[3],[2]],"attributes":{"TOTALPOP":[1,2,3,4]}}`,
		`{"type":"FeatureCollection","features":[
		  {"type":"Feature","geometry":{"type":"MultiPolygon","coordinates":
		    [[[[0,0],[0.1,0],[0.1,0.1],[0,0]]],[[[0,0],[1,0],[1,1],[0,1],[0,0]]]]},"properties":{"POP":7}},
		  {"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[1,0],[2,0],[2,1],[1,1],[1,0]]]},
		   "properties":{"POP":9}}]}`,
		`{"type":"FeatureCollection","features":[
		  {"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[0,0],[1,0],[1,1],[0,1],[0,0]]]},
		   "properties":{"id":0,"region":2,"POP":5}}]}`,
		`{`,
		`{"type":"Feature","features":[]}`,
		`{"type":"FeatureCollection","features":[]}`,
		`{"type":"FeatureCollection","features":[{"type":"Feature","geometry":{"type":"Point","coordinates":[1,2]},"properties":{}}]}`,
		`{"type":"FeatureCollection","features":[{"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[0,0],[1,1]]]},"properties":{}}]}`,
		`{"type":"FeatureCollection","features":[{"type":"Feature","geometry":{"type":"Polygon","coordinates":"x"},"properties":{}}]}`,
		`{"type":"FeatureCollection","features":[
		  {"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[0,0],[1,0],[1,1],[0,0]]]},"properties":{"A":1}},
		  {"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[1,0],[2,0],[2,1],[1,0]]]},"properties":{}}]}`,
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, rule := range []geom.Contiguity{geom.Rook, geom.Queen} {
			ds, err := Read(bytes.NewReader(in), "fuzz", rule)
			if err != nil {
				return
			}
			g := ds.Graph()
			if err := g.Validate(); err != nil {
				t.Fatalf("%v: accepted dataset has an invalid graph: %v", rule, err)
			}
			for u := 0; u < g.N(); u++ {
				for _, v := range g.Neighbors(u) {
					if v < 0 || int(v) >= g.N() {
						t.Fatalf("%v: area %d has neighbor %d outside [0, %d)", rule, u, v, g.N())
					}
				}
			}
			var first, second bytes.Buffer
			if err := ds.WriteJSON(&first); err != nil {
				t.Fatal(err)
			}
			back, err := data.ReadJSON(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatalf("%v: dataset JSON rejected: %v\n%s", rule, err, first.String())
			}
			if err := back.WriteJSON(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("%v: dataset JSON round trip differs:\n%s\n%s", rule, first.String(), second.String())
			}
		}
	})
}
