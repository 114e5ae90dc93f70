// Package shapefile reads and writes the ESRI shapefile format (.shp
// geometry + .dbf attribute table), the format the paper's census-tract
// datasets ship in (US Census Bureau TIGER/Line and SCAG open data).
//
// The paper joins shapefiles to attribute tables with QGIS; this package
// removes that dependency: polygons and numeric attributes load directly
// into a data.Dataset, with contiguity derived geometrically by
// internal/geom.
//
// Supported geometry: Polygon (shape type 5) and its Null placeholder.
// Multi-ring polygons keep their largest-area ring as the outer boundary
// for contiguity purposes (holes and islands do not affect rook adjacency
// between census tracts in practice). The .shx index file is not needed:
// records are read sequentially.
package shapefile

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"emp/internal/geom"
)

// Shape type codes from the ESRI specification.
const (
	shapeNull    = 0
	shapePolygon = 5
)

const (
	fileCode   = 9994
	shpVersion = 1000
	headerLen  = 100
)

// ReadSHP parses a .shp stream and returns one polygon per record. Null
// shapes produce empty polygons (no vertices) to keep record indices
// aligned with the .dbf rows.
func ReadSHP(r io.Reader) ([]geom.Polygon, error) {
	header := make([]byte, headerLen)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("shapefile: short header: %w", err)
	}
	if code := int32(binary.BigEndian.Uint32(header[0:4])); code != fileCode {
		return nil, fmt.Errorf("shapefile: bad file code %d, want %d", code, fileCode)
	}
	if v := int32(binary.LittleEndian.Uint32(header[28:32])); v != shpVersion {
		return nil, fmt.Errorf("shapefile: unsupported version %d", v)
	}
	shapeType := int32(binary.LittleEndian.Uint32(header[32:36]))
	if shapeType != shapePolygon && shapeType != shapeNull {
		return nil, fmt.Errorf("shapefile: unsupported shape type %d (only Polygon is supported)", shapeType)
	}

	var polys []geom.Polygon
	recHeader := make([]byte, 8)
	for {
		if _, err := io.ReadFull(r, recHeader); err != nil {
			if err == io.EOF {
				return polys, nil
			}
			return nil, fmt.Errorf("shapefile: record %d header: %w", len(polys)+1, err)
		}
		contentWords := int32(binary.BigEndian.Uint32(recHeader[4:8]))
		if contentWords < 2 {
			return nil, fmt.Errorf("shapefile: record %d: content length %d words too small", len(polys)+1, contentWords)
		}
		// Read what the stream holds rather than allocating the declared
		// length up front: a corrupt header can declare 4 GiB.
		want := int64(contentWords) * 2
		content, err := io.ReadAll(io.LimitReader(r, want))
		if err == nil && int64(len(content)) < want {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, fmt.Errorf("shapefile: record %d content: %w", len(polys)+1, err)
		}
		pg, err := parsePolygonRecord(content)
		if err != nil {
			return nil, fmt.Errorf("shapefile: record %d: %w", len(polys)+1, err)
		}
		polys = append(polys, pg)
	}
}

// parsePolygonRecord decodes one record's content (shape type + polygon).
func parsePolygonRecord(content []byte) (geom.Polygon, error) {
	st := int32(binary.LittleEndian.Uint32(content[0:4]))
	switch st {
	case shapeNull:
		return geom.Polygon{}, nil
	case shapePolygon:
	default:
		return geom.Polygon{}, fmt.Errorf("unsupported shape type %d in record", st)
	}
	// Layout: type(4) box(32) numParts(4) numPoints(4) parts points.
	if len(content) < 44 {
		return geom.Polygon{}, fmt.Errorf("polygon record truncated (%d bytes)", len(content))
	}
	numParts := int(int32(binary.LittleEndian.Uint32(content[36:40])))
	numPoints := int(int32(binary.LittleEndian.Uint32(content[40:44])))
	if numParts <= 0 || numPoints <= 0 {
		return geom.Polygon{}, fmt.Errorf("polygon with %d parts, %d points", numParts, numPoints)
	}
	need := 44 + 4*numParts + 16*numPoints
	if len(content) < need {
		return geom.Polygon{}, fmt.Errorf("polygon record needs %d bytes, has %d", need, len(content))
	}
	parts := make([]int, numParts+1)
	for i := 0; i < numParts; i++ {
		parts[i] = int(int32(binary.LittleEndian.Uint32(content[44+4*i : 48+4*i])))
	}
	parts[numParts] = numPoints
	ptsOff := 44 + 4*numParts
	readPoint := func(i int) geom.Point {
		off := ptsOff + 16*i
		return geom.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(content[off : off+8])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(content[off+8 : off+16])),
		}
	}
	// Pick the ring with the largest absolute area as the outer boundary.
	var best geom.Ring
	bestArea := -1.0
	for p := 0; p < numParts; p++ {
		start, end := parts[p], parts[p+1]
		if start < 0 || end > numPoints || start >= end {
			return geom.Polygon{}, fmt.Errorf("bad part bounds [%d, %d)", start, end)
		}
		ring := make(geom.Ring, 0, end-start)
		for i := start; i < end; i++ {
			pt := readPoint(i)
			if !pt.InRange() {
				return geom.Polygon{}, fmt.Errorf("point %d (%g, %g) is not finite or outside ±%g", i, pt.X, pt.Y, geom.MaxCoord)
			}
			ring = append(ring, pt)
		}
		// Shapefile rings repeat the first vertex at the end; our Ring
		// closes implicitly.
		if len(ring) > 1 && ring[0] == ring[len(ring)-1] {
			ring = ring[:len(ring)-1]
		}
		if a := ring.Area(); a > bestArea {
			best, bestArea = ring, a
		}
	}
	return geom.Polygon{Outer: best}, nil
}

// WriteSHP encodes polygons as a Polygon-type .shp stream. Empty polygons
// are written as Null shapes.
func WriteSHP(w io.Writer, polys []geom.Polygon) error {
	// Records are built first so the header's file length is known.
	var records [][]byte
	box := geom.EmptyBBox()
	for i, pg := range polys {
		var content []byte
		if len(pg.Outer) == 0 {
			content = make([]byte, 4)
			binary.LittleEndian.PutUint32(content[0:4], shapeNull)
		} else {
			content = encodePolygon(pg)
			for _, p := range pg.Outer {
				box.Extend(p)
			}
		}
		rec := make([]byte, 8+len(content))
		binary.BigEndian.PutUint32(rec[0:4], uint32(i+1))
		binary.BigEndian.PutUint32(rec[4:8], uint32(len(content)/2))
		copy(rec[8:], content)
		records = append(records, rec)
	}
	total := headerLen
	for _, rec := range records {
		total += len(rec)
	}
	header := make([]byte, headerLen)
	binary.BigEndian.PutUint32(header[0:4], fileCode)
	binary.BigEndian.PutUint32(header[24:28], uint32(total/2))
	binary.LittleEndian.PutUint32(header[28:32], shpVersion)
	binary.LittleEndian.PutUint32(header[32:36], shapePolygon)
	if box.Empty() {
		box = geom.BBox{}
	}
	putFloat := func(off int, v float64) {
		binary.LittleEndian.PutUint64(header[off:off+8], math.Float64bits(v))
	}
	putFloat(36, box.MinX)
	putFloat(44, box.MinY)
	putFloat(52, box.MaxX)
	putFloat(60, box.MaxY)
	if _, err := w.Write(header); err != nil {
		return err
	}
	for _, rec := range records {
		if _, err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

func encodePolygon(pg geom.Polygon) []byte {
	// One ring, closed by repeating the first vertex per the spec.
	n := len(pg.Outer) + 1
	content := make([]byte, 44+4+16*n)
	binary.LittleEndian.PutUint32(content[0:4], shapePolygon)
	box := pg.BBox()
	putFloat := func(off int, v float64) {
		binary.LittleEndian.PutUint64(content[off:off+8], math.Float64bits(v))
	}
	putFloat(4, box.MinX)
	putFloat(12, box.MinY)
	putFloat(20, box.MaxX)
	putFloat(28, box.MaxY)
	binary.LittleEndian.PutUint32(content[36:40], 1) // numParts
	binary.LittleEndian.PutUint32(content[40:44], uint32(n))
	binary.LittleEndian.PutUint32(content[44:48], 0) // part 0 offset
	writePt := func(i int, p geom.Point) {
		off := 48 + 16*i
		putFloat(off, p.X)
		putFloat(off+8, p.Y)
	}
	for i, p := range pg.Outer {
		writePt(i, p)
	}
	writePt(n-1, pg.Outer[0])
	return content
}
