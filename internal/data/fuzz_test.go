package data

import (
	"bytes"
	"testing"
)

// wrappedIDDocument has the id 4294967296, which is 0 once truncated to
// int32; the decoder must reject it rather than read [[1],[0],[3],[2]].
const wrappedIDDocument = `{"name":"wrap","n":4,"adjacency":[[1],[4294967296],[3],[2]],` +
	`"attributes":{"TOTALPOP":[1,2,3,4]},"attr_order":["TOTALPOP"],"dissimilarity":"TOTALPOP"}`

// FuzzReadJSON checks the dataset decoder behind the inline "dataset" of
// POST /v1/solve and /v1/jobs: it never panics, and every document it
// accepts gives a valid graph over [0, n) whose JSON encoding round-trips
// byte for byte.
func FuzzReadJSON(f *testing.F) {
	for _, in := range []string{
		wrappedIDDocument,
		`{"name":"iso","n":3,"adjacency":[[1],[0],[]],"attributes":{"POP":[1,2,3]},"attr_order":["POP"]}`,
		`{"name":"x","n":2,"adjacency":[[1],[0]],"attributes":{"A":[1,2],"B":[3,4]},"dissimilarity_attrs":["A","B"],` +
			`"polygons":[[0,0,1,0,1,1],[1,0,2,0,2,1]]}`,
		"{not json",
		`{"name":"x","n":2,"adjacency":[[1]]}`,
		`{"name":"x","n":1,"adjacency":[[]],"attributes":{},"attr_order":["A"]}`,
		`{"name":"x","n":1,"adjacency":[[]],"attributes":{"A":[1]},"polygons":[[1,2,3]]}`,
		`{"name":"x","n":2,"adjacency":[[1],[0]],"attributes":{"A":[1]}}`,
		`{"name":"x","n":2,"adjacency":[[1],[]],"attributes":{}}`,
		`{"name":"x","n":2,"adjacency":[[1,1],[0,0]]}`,
		`{"name":"x","n":1,"adjacency":[[-1]]}`,
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		d, err := ReadJSON(bytes.NewReader(in))
		if err != nil {
			return
		}
		g := d.Graph()
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted dataset has an invalid graph: %v", err)
		}
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(u) {
				if v < 0 || int(v) >= g.N() {
					t.Fatalf("area %d has neighbor %d outside [0, %d)", u, v, g.N())
				}
			}
		}
		var first, second bytes.Buffer
		if err := d.WriteJSON(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("own encoding rejected: %v\n%s", err, first.String())
		}
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("JSON round trip differs:\n%s\n%s", first.String(), second.String())
		}
	})
}
