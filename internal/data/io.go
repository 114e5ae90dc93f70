package data

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"emp/internal/geom"
)

// jsonDataset is the on-disk JSON schema. Polygons are stored as flat
// coordinate arrays [x0, y0, x1, y1, ...] to keep files compact.
type jsonDataset struct {
	Name          string               `json:"name"`
	N             int                  `json:"n"`
	Adjacency     [][]int              `json:"adjacency"`
	Attributes    map[string][]float64 `json:"attributes"`
	AttrOrder     []string             `json:"attr_order"`
	Dissimilarity string               `json:"dissimilarity,omitempty"`
	DissimAttrs   []string             `json:"dissimilarity_attrs,omitempty"`
	Polygons      [][]float64          `json:"polygons,omitempty"`
}

// WriteJSON serializes the dataset.
func (d *Dataset) WriteJSON(w io.Writer) error {
	adj := make([][]int, d.N())
	for u := range adj {
		// Non-nil, so an isolated area writes [] rather than null.
		adj[u] = make([]int, 0, d.g.Degree(u))
		for _, v := range d.g.Neighbors(u) {
			adj[u] = append(adj[u], int(v))
		}
	}
	jd := jsonDataset{
		Name:          d.Name,
		N:             d.N(),
		Adjacency:     adj,
		Attributes:    make(map[string][]float64, len(d.AttrNames)),
		AttrOrder:     d.AttrNames,
		Dissimilarity: d.Dissimilarity,
		DissimAttrs:   d.DissimilarityAttrs,
	}
	for i, name := range d.AttrNames {
		jd.Attributes[name] = d.Cols[i]
	}
	if d.Polygons != nil {
		jd.Polygons = make([][]float64, len(d.Polygons))
		for i, pg := range d.Polygons {
			flat := make([]float64, 0, 2*len(pg.Outer))
			for _, p := range pg.Outer {
				flat = append(flat, p.X, p.Y)
			}
			jd.Polygons[i] = flat
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(jd)
}

// ReadJSON deserializes a dataset and validates it.
func ReadJSON(r io.Reader) (*Dataset, error) {
	var jd jsonDataset
	if err := json.NewDecoder(r).Decode(&jd); err != nil {
		return nil, fmt.Errorf("data: decode: %w", err)
	}
	if len(jd.Adjacency) != jd.N {
		return nil, fmt.Errorf("data: file declares n=%d but has %d adjacency lists", jd.N, len(jd.Adjacency))
	}
	d, err := New(jd.Name, jd.Adjacency)
	if err != nil {
		return nil, err
	}
	d.Dissimilarity = jd.Dissimilarity
	d.DissimilarityAttrs = jd.DissimAttrs
	order := jd.AttrOrder
	if order == nil {
		for name := range jd.Attributes {
			order = append(order, name)
		}
	}
	for _, name := range order {
		col, ok := jd.Attributes[name]
		if !ok {
			return nil, fmt.Errorf("data: attr_order lists %q but attributes lacks it", name)
		}
		if err := d.AddColumn(name, col); err != nil {
			return nil, err
		}
	}
	if jd.Polygons != nil {
		d.Polygons = make([]geom.Polygon, len(jd.Polygons))
		for i, flat := range jd.Polygons {
			if len(flat)%2 != 0 {
				return nil, fmt.Errorf("data: polygon %d has odd coordinate count", i)
			}
			ring := make(geom.Ring, 0, len(flat)/2)
			for j := 0; j < len(flat); j += 2 {
				ring = append(ring, geom.Point{X: flat[j], Y: flat[j+1]})
			}
			d.Polygons[i] = geom.Polygon{Outer: ring}
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// SaveJSON writes the dataset to a file path.
func (d *Dataset) SaveJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := d.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadJSON reads a dataset from a file path.
func LoadJSON(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSON(f)
}

// WriteAttributesCSV emits an id column plus every attribute column, one row
// per area, for inspection in spreadsheet tools.
func (d *Dataset) WriteAttributesCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"id"}, d.AttrNames...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for i := 0; i < d.N(); i++ {
		row[0] = strconv.Itoa(i)
		for c := range d.Cols {
			row[c+1] = strconv.FormatFloat(d.Cols[c][i], 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadAttributesCSV parses a CSV produced by WriteAttributesCSV into
// attribute columns, returning them keyed by header name. The id column is
// required to be first and strictly increasing from 0.
func ReadAttributesCSV(r io.Reader) (map[string][]float64, []string, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("data: csv: %w", err)
	}
	if len(records) == 0 {
		return nil, nil, fmt.Errorf("data: csv: empty file")
	}
	header := records[0]
	if len(header) < 1 || header[0] != "id" {
		return nil, nil, fmt.Errorf("data: csv: first column must be 'id'")
	}
	names := header[1:]
	cols := make(map[string][]float64, len(names))
	for _, n := range names {
		cols[n] = make([]float64, 0, len(records)-1)
	}
	for rowIdx, rec := range records[1:] {
		id, err := strconv.Atoi(rec[0])
		if err != nil || id != rowIdx {
			return nil, nil, fmt.Errorf("data: csv: row %d has id %q, want %d", rowIdx+1, rec[0], rowIdx)
		}
		for c, name := range names {
			v, err := strconv.ParseFloat(rec[c+1], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("data: csv: row %d column %q: %w", rowIdx+1, name, err)
			}
			cols[name] = append(cols[name], v)
		}
	}
	return cols, names, nil
}
