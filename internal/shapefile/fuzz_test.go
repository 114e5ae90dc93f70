package shapefile

import (
	"bytes"
	"math"
	"testing"

	"emp/internal/geom"
)

// FuzzReadSHP checks the binary .shp parser never panics on corrupt input
// and that every point it accepts is finite and within ±geom.MaxCoord.
func FuzzReadSHP(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteSHP(&buf, squaresForFuzz(3)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, 100))
	truncated := buf.Bytes()[:buf.Len()-7]
	f.Add(truncated)
	for _, v := range []float64{math.NaN(), math.Inf(-1), 1e10} {
		f.Add(withFirstX(buf.Bytes(), 1, v))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		polys, err := ReadSHP(bytes.NewReader(in))
		if err != nil {
			return
		}
		for i, pg := range polys {
			_ = pg.Area() // must not panic either
			for _, p := range pg.Outer {
				if !p.InRange() {
					t.Fatalf("record %d accepted with point %v outside ±%g", i+1, p, geom.MaxCoord)
				}
			}
		}
	})
}

// FuzzReadDBF checks the .dbf parser never panics on corrupt input.
func FuzzReadDBF(f *testing.F) {
	table := &Table{
		Fields:  []Field{{Name: "A", Type: 'N', Length: 8}, {Name: "B", Type: 'C', Length: 4}},
		Records: [][]string{{"1.5", "ab"}, {"2", "cd"}},
	}
	var buf bytes.Buffer
	if err := WriteDBF(&buf, table); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0x03})
	f.Add(make([]byte, 33))
	f.Fuzz(func(t *testing.T, in []byte) {
		tbl, err := ReadDBF(bytes.NewReader(in))
		if err != nil {
			return
		}
		for _, fd := range tbl.Fields {
			_, _ = tbl.NumericColumn(fd.Name) // must not panic
		}
	})
}

func squaresForFuzz(n int) []geom.Polygon {
	polys := make([]geom.Polygon, n)
	for i := range polys {
		x := float64(i)
		polys[i] = geom.Polygon{Outer: geom.Ring{
			{X: x, Y: 0}, {X: x + 1, Y: 0}, {X: x + 1, Y: 1}, {X: x, Y: 1},
		}}
	}
	return polys
}
