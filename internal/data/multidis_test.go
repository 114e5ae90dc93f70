package data

import (
	"bytes"
	"math"
	"testing"
)

func TestDissimilarityMatrixSingleAttrRaw(t *testing.T) {
	d := grid3x2(t)
	m, err := d.DissimilarityMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 {
		t.Fatalf("rows = %d", len(m))
	}
	// Single attribute: raw values, matching the paper's H exactly.
	col := d.Column("POP")
	for i := range col {
		if m[0][i] != col[i] {
			t.Errorf("single-attr matrix scaled: %v vs %v", m[0][i], col[i])
		}
	}
}

func TestDissimilarityMatrixMultivariate(t *testing.T) {
	d := grid3x2(t)
	if err := d.AddColumn("INC", []float64{100, 200, 300, 400, 500, 600}); err != nil {
		t.Fatal(err)
	}
	d.DissimilarityAttrs = []string{"POP", "INC"}
	m, err := d.DissimilarityMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 {
		t.Fatalf("rows = %d", len(m))
	}
	// Each row is z-scaled: stddev of each scaled row must be 1.
	for r, row := range m {
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(len(row))
		var ss float64
		for _, v := range row {
			dv := v - mean
			ss += dv * dv
		}
		sd := math.Sqrt(ss / float64(len(row)))
		if math.Abs(sd-1) > 1e-9 {
			t.Errorf("row %d stddev = %v, want 1", r, sd)
		}
	}
	// POP and INC are perfectly correlated here, so scaled rows coincide.
	for i := range m[0] {
		if math.Abs((m[0][i]-m[0][0])-(m[1][i]-m[1][0])) > 1e-9 {
			t.Errorf("scaled rows diverge at %d", i)
		}
	}
}

func TestDissimilarityMatrixConstantColumn(t *testing.T) {
	d := grid3x2(t)
	if err := d.AddColumn("CONST", []float64{7, 7, 7, 7, 7, 7}); err != nil {
		t.Fatal(err)
	}
	d.DissimilarityAttrs = []string{"POP", "CONST"}
	m, err := d.DissimilarityMatrix()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range m[1] {
		if v != 0 {
			t.Error("constant column should scale to zeros")
		}
	}
}

func TestDissimilarityMatrixErrors(t *testing.T) {
	d := grid3x2(t)
	d.DissimilarityAttrs = []string{"GHOST"}
	if _, err := d.DissimilarityMatrix(); err == nil {
		t.Error("missing attribute accepted")
	}
	if err := d.Validate(); err == nil {
		t.Error("Validate should flag missing dissimilarity attr")
	}
	d2 := grid3x2(t)
	d2.Dissimilarity = ""
	if _, err := d2.DissimilarityMatrix(); err == nil {
		t.Error("no dissimilarity configured accepted")
	}
}

func TestDissimilarityAttrsJSONRoundTrip(t *testing.T) {
	d := grid3x2(t)
	if err := d.AddColumn("INC", []float64{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	d.DissimilarityAttrs = []string{"POP", "INC"}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.DissimilarityAttrs) != 2 || back.DissimilarityAttrs[1] != "INC" {
		t.Errorf("attrs lost: %v", back.DissimilarityAttrs)
	}
}

func TestDissimilarityAttrsSplit(t *testing.T) {
	d := grid3x2(t)
	d.DissimilarityAttrs = []string{"POP"}
	members := [][]int{{0, 1}, {2, 3, 4, 5}}
	part, local := splitIndex(d.N(), members)
	for _, sub := range d.Split(part, local, members) {
		if len(sub.DissimilarityAttrs) != 1 {
			t.Error("split lost dissimilarity attrs")
		}
	}
}
