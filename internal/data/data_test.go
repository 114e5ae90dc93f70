package data

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"emp/internal/geom"
)

// lists returns the dataset's neighbor lists, read from its graph.
func lists(d *Dataset) [][]int {
	adj := make([][]int, d.N())
	for u := range adj {
		adj[u] = []int{}
		for _, v := range d.Graph().Neighbors(u) {
			adj[u] = append(adj[u], int(v))
		}
	}
	return adj
}

// mustNew is New for lists the test knows to be in range.
func mustNew(t *testing.T, name string, adj [][]int) *Dataset {
	t.Helper()
	d, err := New(name, adj)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// grid3x2 builds a 3x2 lattice dataset with one attribute.
func grid3x2(t *testing.T) *Dataset {
	t.Helper()
	polys := geom.Lattice(geom.LatticeOptions{Cols: 3, Rows: 2})
	d := FromPolygons("grid", polys, geom.Rook)
	if err := d.AddColumn("POP", []float64{10, 20, 30, 40, 50, 60}); err != nil {
		t.Fatal(err)
	}
	d.Dissimilarity = "POP"
	return d
}

func TestFromPolygonsAdjacency(t *testing.T) {
	d := grid3x2(t)
	if d.N() != 6 {
		t.Fatalf("N = %d", d.N())
	}
	if got, want := lists(d), geom.GridNeighbors(3, 2, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("adjacency = %v, want %v", got, want)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if d.Components() != 1 {
		t.Errorf("Components = %d, want 1", d.Components())
	}
}

func TestAddColumnErrors(t *testing.T) {
	d := mustNew(t, "x", make([][]int, 3))
	if err := d.AddColumn("A", []float64{1, 2}); err == nil {
		t.Error("wrong-length column accepted")
	}
	if err := d.AddColumn("A", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddColumn("A", []float64{4, 5, 6}); err == nil {
		t.Error("duplicate column accepted")
	}
	if d.Column("A") == nil || d.Column("B") != nil {
		t.Error("Column lookup wrong")
	}
}

func TestDissimilarityColumn(t *testing.T) {
	d := grid3x2(t)
	col, err := d.DissimilarityColumn()
	if err != nil || len(col) != 6 {
		t.Errorf("DissimilarityColumn: %v len=%d", err, len(col))
	}
	d.Dissimilarity = ""
	if _, err := d.DissimilarityColumn(); err == nil {
		t.Error("unset dissimilarity accepted")
	}
	d.Dissimilarity = "MISSING"
	if _, err := d.DissimilarityColumn(); err == nil {
		t.Error("missing dissimilarity accepted")
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	base := func() *Dataset { return grid3x2(t) }

	if _, err := New("x", [][]int{{99}, {0}}); err == nil {
		t.Error("out-of-range adjacency accepted")
	}
	if err := mustNew(t, "x", [][]int{{1}, {}}).Validate(); err == nil {
		t.Error("asymmetric adjacency accepted")
	}

	d := base()
	d.Cols[0][2] = math.NaN()
	if err := d.Validate(); err == nil {
		t.Error("NaN attribute accepted")
	}

	d = base()
	d.Cols[0] = d.Cols[0][:3]
	if err := d.Validate(); err == nil {
		t.Error("short column accepted")
	}

	d = base()
	d.Polygons = d.Polygons[:2]
	if err := d.Validate(); err == nil {
		t.Error("polygon count mismatch accepted")
	}

	d = base()
	d.Dissimilarity = "NOPE"
	if err := d.Validate(); err == nil {
		t.Error("bad dissimilarity accepted")
	}

	d = base()
	d.AttrNames = append(d.AttrNames, "ghost")
	if err := d.Validate(); err == nil {
		t.Error("attr name/column mismatch accepted")
	}
}

func TestSubset(t *testing.T) {
	d := grid3x2(t)
	// Keep areas 0,1,4 (grid positions: (0,0),(1,0),(1,1)).
	sub, err := d.Subset([]int{0, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 {
		t.Fatalf("subset N = %d", sub.N())
	}
	// New ids: 0->0, 1->1, 4->2. Edges: 0-1 (was 0-1), 1-2 (was 1-4).
	if got, want := lists(sub), [][]int{{1}, {0, 2}, {1}}; !reflect.DeepEqual(got, want) {
		t.Errorf("sub adjacency = %v, want %v", got, want)
	}
	if got := sub.Column("POP"); got[2] != 50 {
		t.Errorf("subset column remap wrong: %v", got)
	}
	if len(sub.Polygons) != 3 {
		t.Errorf("subset polygons = %d", len(sub.Polygons))
	}
	if err := sub.Validate(); err != nil {
		t.Errorf("subset invalid: %v", err)
	}

	if _, err := d.Subset([]int{0, 0}); err == nil {
		t.Error("duplicate subset id accepted")
	}
	if _, err := d.Subset([]int{-1}); err == nil {
		t.Error("negative subset id accepted")
	}
	if _, err := d.Subset([]int{17}); err == nil {
		t.Error("out-of-range subset id accepted")
	}
}

func TestColumnStats(t *testing.T) {
	d := grid3x2(t)
	s, err := d.ColumnStats("POP")
	if err != nil {
		t.Fatal(err)
	}
	if s.Count != 6 || s.Min != 10 || s.Max != 60 || s.Sum != 210 || s.Mean != 35 {
		t.Errorf("stats = %+v", s)
	}
	if _, err := d.ColumnStats("NOPE"); err == nil {
		t.Error("missing column accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d := grid3x2(t)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || got.N() != d.N() || got.Dissimilarity != d.Dissimilarity {
		t.Errorf("metadata mismatch: %+v", got)
	}
	for i := range d.AttrNames {
		if got.AttrNames[i] != d.AttrNames[i] {
			t.Errorf("attr order mismatch: %v vs %v", got.AttrNames, d.AttrNames)
		}
	}
	for i := range d.Cols[0] {
		if got.Cols[0][i] != d.Cols[0][i] {
			t.Errorf("column value mismatch at %d", i)
		}
	}
	if len(got.Polygons) != len(d.Polygons) {
		t.Fatalf("polygons lost in round trip")
	}
	if got.Polygons[3].Area() != d.Polygons[3].Area() {
		t.Error("polygon geometry changed")
	}
	if !reflect.DeepEqual(lists(got), lists(d)) {
		t.Errorf("adjacency mismatch: %v vs %v", lists(got), lists(d))
	}
}

func TestJSONRoundTripNoPolygons(t *testing.T) {
	d := mustNew(t, "bare", [][]int{{1}, {0}})
	if err := d.AddColumn("X", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Polygons != nil {
		t.Error("expected nil polygons")
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []string{
		"{not json",
		`{"name":"x","n":2,"adjacency":[[1]]}`, // n mismatch
		`{"name":"x","n":1,"adjacency":[[]],"attributes":{},"attr_order":["A"]}`,          // missing column
		`{"name":"x","n":1,"adjacency":[[]],"attributes":{"A":[1]},"polygons":[[1,2,3]]}`, // odd coords
		`{"name":"x","n":2,"adjacency":[[1],[0]],"attributes":{"A":[1]}}`,                 // short column
		`{"name":"x","n":2,"adjacency":[[1],[]],"attributes":{}}`,                         // asymmetric
	}
	for _, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("ReadJSON(%q) succeeded, want error", in)
		}
	}
}

// TestReadJSONRejectsWrappedID pins the range check ahead of the int32
// conversion (see wrappedIDDocument).
func TestReadJSONRejectsWrappedID(t *testing.T) {
	_, err := ReadJSON(strings.NewReader(wrappedIDDocument))
	if err == nil || !strings.Contains(err.Error(), "out-of-range neighbor 4294967296") {
		t.Errorf("ReadJSON err = %v, want an out-of-range neighbor error", err)
	}
}

// TestWriteJSONIsolatedArea pins the encoding of an area without
// neighbors: the empty list, never null.
func TestWriteJSONIsolatedArea(t *testing.T) {
	d := mustNew(t, "iso", [][]int{{1}, {0}, nil})
	if err := d.AddColumn("POP", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"name":"iso","n":3,"adjacency":[[1],[0],[]],"attributes":{"POP":[1,2,3]},"attr_order":["POP"]}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteJSON = %s, want %s", got, want)
	}
}

func TestSaveLoadJSONFile(t *testing.T) {
	d := grid3x2(t)
	path := filepath.Join(t.TempDir(), "ds.json")
	if err := d.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != d.N() {
		t.Errorf("loaded N = %d", got.N())
	}
	if _, err := LoadJSON(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestAttributesCSVRoundTrip(t *testing.T) {
	d := grid3x2(t)
	if err := d.AddColumn("EMP", []float64{1.5, 2.5, 3.5, 4.5, 5.5, 6.5}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteAttributesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	cols, names, err := ReadAttributesCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "POP" || names[1] != "EMP" {
		t.Errorf("names = %v", names)
	}
	if cols["EMP"][5] != 6.5 || cols["POP"][0] != 10 {
		t.Errorf("cols = %v", cols)
	}
}

func TestReadAttributesCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"notid,A\n0,1",
		"id,A\n1,5",   // id not starting at 0
		"id,A\n0,abc", // bad float
	}
	for _, in := range cases {
		if _, _, err := ReadAttributesCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadAttributesCSV(%q) succeeded, want error", in)
		}
	}
}

func TestMultiComponentDataset(t *testing.T) {
	d := mustNew(t, "twoparts", [][]int{{1}, {0}, {3}, {2}})
	if d.Components() != 2 {
		t.Errorf("Components = %d, want 2", d.Components())
	}
}
