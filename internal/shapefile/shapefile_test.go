package shapefile

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"emp/internal/census"
	"emp/internal/geom"
)

func squares(n int) []geom.Polygon {
	polys := make([]geom.Polygon, n)
	for i := range polys {
		x := float64(i)
		polys[i] = geom.Polygon{Outer: geom.Ring{
			{X: x, Y: 0}, {X: x + 1, Y: 0}, {X: x + 1, Y: 1}, {X: x, Y: 1},
		}}
	}
	return polys
}

func TestSHPRoundTrip(t *testing.T) {
	polys := squares(5)
	polys = append(polys, geom.Polygon{}) // null shape
	var buf bytes.Buffer
	if err := WriteSHP(&buf, polys); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSHP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("got %d shapes, want 6", len(got))
	}
	for i := 0; i < 5; i++ {
		if len(got[i].Outer) != 4 {
			t.Errorf("shape %d has %d vertices, want 4", i, len(got[i].Outer))
		}
		if math.Abs(got[i].Area()-1) > 1e-12 {
			t.Errorf("shape %d area = %v", i, got[i].Area())
		}
	}
	if len(got[5].Outer) != 0 {
		t.Error("null shape should be empty")
	}
}

func TestSHPRoundTripJittered(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	polys := geom.Lattice(geom.LatticeOptions{Cols: 6, Rows: 4, Jitter: 0.3, Rng: rng})
	var buf bytes.Buffer
	if err := WriteSHP(&buf, polys); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSHP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(polys) {
		t.Fatalf("len %d, want %d", len(got), len(polys))
	}
	// Geometry preserved bit-exactly, so adjacency survives the round trip.
	before := geom.Adjacency(polys, geom.Rook)
	after := geom.Adjacency(got, geom.Rook)
	for i := range before {
		if len(before[i]) != len(after[i]) {
			t.Errorf("adjacency changed at %d: %v vs %v", i, before[i], after[i])
		}
	}
}

// TestReadSHPHugeContentLength: a record header may declare up to 4 GiB of
// content; the reader must fail on the short stream without allocating
// the declared length.
func TestReadSHPHugeContentLength(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSHP(&buf, squares(1)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint32(b[100+4:100+8], math.MaxInt32)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadSHP(bytes.NewReader(b)); err == nil {
		t.Error("accepted a record longer than the stream")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("reading a %d-byte stream allocated %d bytes", len(b), grew)
	}
}

func TestReadSHPErrors(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := WriteSHP(&buf, squares(1)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	t.Run("short header", func(t *testing.T) {
		if _, err := ReadSHP(bytes.NewReader(valid()[:50])); err == nil {
			t.Error("accepted short header")
		}
	})
	t.Run("bad file code", func(t *testing.T) {
		b := valid()
		binary.BigEndian.PutUint32(b[0:4], 1234)
		if _, err := ReadSHP(bytes.NewReader(b)); err == nil {
			t.Error("accepted bad file code")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := valid()
		binary.LittleEndian.PutUint32(b[28:32], 999)
		if _, err := ReadSHP(bytes.NewReader(b)); err == nil {
			t.Error("accepted bad version")
		}
	})
	t.Run("unsupported shape type", func(t *testing.T) {
		b := valid()
		binary.LittleEndian.PutUint32(b[32:36], 3) // PolyLine
		if _, err := ReadSHP(bytes.NewReader(b)); err == nil {
			t.Error("accepted polyline type")
		}
	})
	t.Run("truncated record", func(t *testing.T) {
		b := valid()
		if _, err := ReadSHP(bytes.NewReader(b[:len(b)-10])); err == nil {
			t.Error("accepted truncated record")
		}
	})
	t.Run("record shape type mismatch", func(t *testing.T) {
		b := valid()
		binary.LittleEndian.PutUint32(b[100+8:100+12], 3)
		if _, err := ReadSHP(bytes.NewReader(b)); err == nil {
			t.Error("accepted mismatched record type")
		}
	})
	t.Run("zero parts", func(t *testing.T) {
		b := valid()
		binary.LittleEndian.PutUint32(b[100+8+36:100+8+40], 0)
		if _, err := ReadSHP(bytes.NewReader(b)); err == nil {
			t.Error("accepted zero-part polygon")
		}
	})
}

func TestMultiRingPicksLargest(t *testing.T) {
	// Build a record with two rings: a big square and a small one.
	big := geom.Ring{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10}}
	small := geom.Ring{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 2, Y: 2}, {X: 1, Y: 2}}
	content := encodeTwoRing(big, small)
	pg, err := parsePolygonRecord(content)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pg.Area()-100) > 1e-9 {
		t.Errorf("outer ring area = %v, want 100", pg.Area())
	}
}

// encodeTwoRing builds polygon record content with two rings.
func encodeTwoRing(a, b geom.Ring) []byte {
	nA, nB := len(a)+1, len(b)+1
	n := nA + nB
	content := make([]byte, 44+8+16*n)
	binary.LittleEndian.PutUint32(content[0:4], shapePolygon)
	binary.LittleEndian.PutUint32(content[36:40], 2)
	binary.LittleEndian.PutUint32(content[40:44], uint32(n))
	binary.LittleEndian.PutUint32(content[44:48], 0)
	binary.LittleEndian.PutUint32(content[48:52], uint32(nA))
	off := 52
	write := func(p geom.Point) {
		binary.LittleEndian.PutUint64(content[off:off+8], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(content[off+8:off+16], math.Float64bits(p.Y))
		off += 16
	}
	for _, p := range a {
		write(p)
	}
	write(a[0])
	for _, p := range b {
		write(p)
	}
	write(b[0])
	return content
}

func TestDBFRoundTrip(t *testing.T) {
	table := &Table{
		Fields: []Field{
			{Name: "POP", Type: 'N', Length: 10},
			{Name: "NAME", Type: 'C', Length: 8},
		},
		Records: [][]string{
			{"1234", "alpha"},
			{"56.5", "beta"},
			{"", "gamma"},
		},
	}
	var buf bytes.Buffer
	if err := WriteDBF(&buf, table); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDBF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Fields) != 2 || got.Fields[0].Name != "POP" || got.Fields[1].Type != 'C' {
		t.Fatalf("fields = %+v", got.Fields)
	}
	if len(got.Records) != 3 {
		t.Fatalf("records = %d", len(got.Records))
	}
	col, err := got.NumericColumn("pop") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if col[0] != 1234 || col[1] != 56.5 || col[2] != 0 {
		t.Errorf("numeric column = %v", col)
	}
	if got.Records[0][1] != "alpha" {
		t.Errorf("text cell = %q", got.Records[0][1])
	}
	names := got.FieldNames()
	if len(names) != 2 || names[1] != "NAME" {
		t.Errorf("names = %v", names)
	}
}

func TestDBFErrors(t *testing.T) {
	table := &Table{
		Fields:  []Field{{Name: "A", Type: 'N', Length: 5}},
		Records: [][]string{{"1"}},
	}
	var buf bytes.Buffer
	if err := WriteDBF(&buf, table); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	t.Run("short header", func(t *testing.T) {
		if _, err := ReadDBF(bytes.NewReader(valid[:10])); err == nil {
			t.Error("accepted short header")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[0] = 0x8B
		if _, err := ReadDBF(bytes.NewReader(b)); err == nil {
			t.Error("accepted bad version")
		}
	})
	t.Run("record size mismatch", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint16(b[10:12], 99)
		if _, err := ReadDBF(bytes.NewReader(b)); err == nil {
			t.Error("accepted bad record size")
		}
	})
	t.Run("truncated records", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(b[4:8], 50) // claim 50 records
		if _, err := ReadDBF(bytes.NewReader(b)); err == nil {
			t.Error("accepted truncated records")
		}
	})
	t.Run("missing column", func(t *testing.T) {
		got, err := ReadDBF(bytes.NewReader(valid))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := got.NumericColumn("GHOST"); err == nil {
			t.Error("accepted missing column")
		}
	})
	t.Run("bad numeric", func(t *testing.T) {
		tbl := &Table{
			Fields:  []Field{{Name: "A", Type: 'N', Length: 5}},
			Records: [][]string{{"xx"}},
		}
		var b bytes.Buffer
		if err := WriteDBF(&b, tbl); err != nil {
			t.Fatal(err)
		}
		got, err := ReadDBF(&b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := got.NumericColumn("A"); err == nil {
			t.Error("accepted non-numeric cell")
		}
	})
	t.Run("bad field length on write", func(t *testing.T) {
		tbl := &Table{Fields: []Field{{Name: "A", Type: 'N', Length: 0}}}
		if err := WriteDBF(&buf, tbl); err == nil {
			t.Error("accepted zero-length field")
		}
	})
	t.Run("row width mismatch on write", func(t *testing.T) {
		tbl := &Table{
			Fields:  []Field{{Name: "A", Type: 'N', Length: 5}},
			Records: [][]string{{"1", "2"}},
		}
		var b bytes.Buffer
		if err := WriteDBF(&b, tbl); err == nil {
			t.Error("accepted wrong row width")
		}
	})
}

func TestDBFDeletedRecordsSkipped(t *testing.T) {
	table := &Table{
		Fields:  []Field{{Name: "A", Type: 'N', Length: 4}},
		Records: [][]string{{"1"}, {"2"}, {"3"}},
	}
	var buf bytes.Buffer
	if err := WriteDBF(&buf, table); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Mark the middle record deleted: header(32) + desc(32) + term(1),
	// record size 5.
	recStart := 32 + 32 + 1
	b[recStart+5] = '*'
	got, err := ReadDBF(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 2 {
		t.Errorf("records = %d, want 2 after deletion", len(got.Records))
	}
}

// TestDatasetRoundTripFiles writes a synthetic census dataset to .shp/.dbf
// and loads it back, checking geometry-derived adjacency and attributes
// survive.
func TestDatasetRoundTripFiles(t *testing.T) {
	ds, err := census.Generate(census.Options{Name: "shp", Areas: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "tracts")
	if err := SaveDataset(ds, base); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(base, LoadOptions{
		Name:          "tracts",
		Dissimilarity: "HOUSEHOLDS", // exactly 10 bytes, the dbf name limit
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != ds.N() {
		t.Fatalf("N = %d, want %d", got.N(), ds.N())
	}
	for i := 0; i < ds.N(); i++ {
		if got.Graph().Degree(i) != ds.Graph().Degree(i) {
			t.Errorf("adjacency differs at %d", i)
		}
	}
	orig := ds.Column(census.AttrTotalPop)
	back := got.Column("TOTALPOP")
	if back == nil {
		t.Fatalf("TOTALPOP column missing; have %v", got.AttrNames)
	}
	for i := range orig {
		if math.Abs(orig[i]-back[i]) > 1e-3 {
			t.Errorf("TOTALPOP[%d] = %v, want %v", i, back[i], orig[i])
			break
		}
	}
	if got.Dissimilarity != "HOUSEHOLDS" {
		t.Errorf("dissimilarity = %q", got.Dissimilarity)
	}
}

func TestLoadDatasetMissingFiles(t *testing.T) {
	if _, err := LoadDataset(filepath.Join(t.TempDir(), "nope"), LoadOptions{}); err == nil {
		t.Error("missing files accepted")
	}
}

func TestBuildDatasetMismatch(t *testing.T) {
	polys := squares(2)
	table := &Table{
		Fields:  []Field{{Name: "A", Type: 'N', Length: 4}},
		Records: [][]string{{"1"}},
	}
	if _, err := BuildDataset("x", polys, table, LoadOptions{}); err == nil {
		t.Error("shape/record count mismatch accepted")
	}
}

func TestBuildDatasetDropsNullShapes(t *testing.T) {
	polys := append(squares(2), geom.Polygon{})
	table := &Table{
		Fields:  []Field{{Name: "A", Type: 'N', Length: 4}},
		Records: [][]string{{"1"}, {"2"}, {"3"}},
	}
	ds, err := BuildDataset("x", polys, table, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 2 {
		t.Fatalf("N = %d, want 2 (null shape dropped)", ds.N())
	}
	col := ds.Column("A")
	if col[0] != 1 || col[1] != 2 {
		t.Errorf("column = %v", col)
	}
}

func TestSaveDatasetRequiresPolygons(t *testing.T) {
	ds, err := census.Generate(census.Options{Name: "x", Areas: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds.Polygons = nil
	if err := SaveDataset(ds, filepath.Join(t.TempDir(), "x")); err == nil {
		t.Error("polygon-less dataset accepted")
	}
}

// Property: any jittered lattice round-trips through .shp bytes with
// identical area sums.
func TestSHPRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		polys := geom.Lattice(geom.LatticeOptions{
			Cols: 2 + rng.Intn(5), Rows: 2 + rng.Intn(5), Jitter: 0.3, Rng: rng,
		})
		var buf bytes.Buffer
		if err := WriteSHP(&buf, polys); err != nil {
			return false
		}
		got, err := ReadSHP(&buf)
		if err != nil || len(got) != len(polys) {
			return false
		}
		var a, b float64
		for i := range polys {
			a += polys[i].Area()
			b += got[i].Area()
		}
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFieldNameTruncationOnWrite(t *testing.T) {
	table := &Table{
		Fields:  []Field{{Name: "VERYLONGNAME", Type: 'N', Length: 6}},
		Records: [][]string{{"1"}},
	}
	var buf bytes.Buffer
	if err := WriteDBF(&buf, table); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDBF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fields[0].Name != "VERYLONGNA" {
		t.Errorf("name = %q, want truncated to 10 bytes", got.Fields[0].Name)
	}
	if !strings.HasPrefix("VERYLONGNAME", got.Fields[0].Name) {
		t.Error("truncation mangled the name")
	}
}

// withFirstX returns a copy of a squares() stream whose record rec (from 0)
// has v as the x of its first point. Each square record is 8 header bytes
// plus 48 bytes of type, box, counts and part offset before its five points.
func withFirstX(shp []byte, rec int, v float64) []byte {
	b := bytes.Clone(shp)
	off := headerLen + rec*(8+48+16*5) + 8 + 48
	binary.LittleEndian.PutUint64(b[off:off+8], math.Float64bits(v))
	return b
}

// TestReadSHPRejectsOutOfRangeCoordinates: a point's bits can decode to NaN
// or ±Inf, and past ±geom.MaxCoord the contiguity snap saturates, so two
// disjoint squares at x = 1e10 would come back as neighbors. ReadSHP
// rejects each such point with an error naming its record.
func TestReadSHPRejectsOutOfRangeCoordinates(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSHP(&buf, squares(3)); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e10, -9.5e9} {
		_, err := ReadSHP(bytes.NewReader(withFirstX(buf.Bytes(), 1, v)))
		if err == nil || !strings.Contains(err.Error(), "record 2") {
			t.Errorf("x = %g: err = %v, want one naming record 2", v, err)
		}
	}
	// The same far squares, written whole, are rejected before any
	// contiguity is derived from them.
	far := []geom.Polygon{squares(1)[0], squares(1)[0], squares(1)[0]}
	for i, x := range []float64{0, 1e10, 1e10 + 5} {
		for j := range far[i].Outer {
			far[i].Outer[j].X += x
		}
	}
	buf.Reset()
	if err := WriteSHP(&buf, far); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSHP(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Errorf("far squares: err = %v, want one naming record 2", err)
	}
	// MaxCoord itself is in range.
	edge := squares(1)
	for j := range edge[0].Outer {
		edge[0].Outer[j].X -= geom.MaxCoord
	}
	buf.Reset()
	if err := WriteSHP(&buf, edge); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSHP(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("square at -MaxCoord rejected: %v", err)
	}
}
