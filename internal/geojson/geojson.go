// Package geojson imports and exports datasets and solutions as GeoJSON
// (RFC 7946), the interchange format used by web maps and modern GIS
// tooling. Together with internal/shapefile it replaces the paper's QGIS
// workflow for getting census data in and regionalization results out.
package geojson

import (
	"encoding/json"
	"fmt"
	"io"

	"emp/internal/data"
	"emp/internal/geom"
)

// feature mirrors a GeoJSON Feature with a polygonal geometry.
type feature struct {
	Type       string             `json:"type"`
	Geometry   geometry           `json:"geometry"`
	Properties map[string]float64 `json:"properties"`
}

type geometry struct {
	Type        string          `json:"type"`
	Coordinates json.RawMessage `json:"coordinates"`
}

type featureCollection struct {
	Type     string    `json:"type"`
	Features []feature `json:"features"`
}

// Write exports the dataset as a FeatureCollection: one Polygon feature per
// area carrying every attribute column as a numeric property plus the area
// id. When assignment is non-nil (one region index per area, -1 for
// unassigned) a "region" property is added, making the output directly
// render-able as a choropleth of the regionalization.
func Write(w io.Writer, ds *data.Dataset, assignment []int) error {
	if ds.Polygons == nil {
		return fmt.Errorf("geojson: dataset %q has no polygons", ds.Name)
	}
	if assignment != nil && len(assignment) != ds.N() {
		return fmt.Errorf("geojson: assignment has %d entries for %d areas", len(assignment), ds.N())
	}
	fc := featureCollection{Type: "FeatureCollection"}
	for i, pg := range ds.Polygons {
		props := make(map[string]float64, len(ds.AttrNames)+2)
		props["id"] = float64(i)
		for c, name := range ds.AttrNames {
			props[name] = ds.Cols[c][i]
		}
		if assignment != nil {
			props["region"] = float64(assignment[i])
		}
		coords, err := marshalPolygon(pg)
		if err != nil {
			return fmt.Errorf("geojson: area %d: %w", i, err)
		}
		fc.Features = append(fc.Features, feature{
			Type:       "Feature",
			Geometry:   geometry{Type: "Polygon", Coordinates: coords},
			Properties: props,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(fc)
}

func marshalPolygon(pg geom.Polygon) (json.RawMessage, error) {
	if len(pg.Outer) < 3 {
		return nil, fmt.Errorf("polygon has %d vertices", len(pg.Outer))
	}
	// GeoJSON rings close explicitly: repeat the first vertex.
	ring := make([][2]float64, 0, len(pg.Outer)+1)
	for _, p := range pg.Outer {
		ring = append(ring, [2]float64{p.X, p.Y})
	}
	ring = append(ring, ring[0])
	return json.Marshal([][][2]float64{ring})
}

// Read imports a FeatureCollection of Polygon/MultiPolygon features into a
// dataset. Numeric properties become attribute columns (present on every
// feature, else an error); the largest ring of each feature is used as the
// area boundary; adjacency is derived under the given contiguity rule.
func Read(r io.Reader, name string, rule geom.Contiguity) (*data.Dataset, error) {
	var fc featureCollection
	if err := json.NewDecoder(r).Decode(&fc); err != nil {
		return nil, fmt.Errorf("geojson: decode: %w", err)
	}
	if fc.Type != "FeatureCollection" {
		return nil, fmt.Errorf("geojson: top-level type %q, want FeatureCollection", fc.Type)
	}
	if len(fc.Features) == 0 {
		return nil, fmt.Errorf("geojson: no features")
	}
	polys := make([]geom.Polygon, 0, len(fc.Features))
	for i, f := range fc.Features {
		pg, err := unmarshalGeometry(f.Geometry)
		if err != nil {
			return nil, fmt.Errorf("geojson: feature %d: %w", i, err)
		}
		polys = append(polys, pg)
	}
	ds := data.FromPolygons(name, polys, rule)

	// Attribute columns: the intersection is required to be the full set —
	// every numeric property of feature 0 must exist on all features.
	for key := range fc.Features[0].Properties {
		if key == "id" || key == "region" {
			continue
		}
		col := make([]float64, len(fc.Features))
		for i, f := range fc.Features {
			v, ok := f.Properties[key]
			if !ok {
				return nil, fmt.Errorf("geojson: feature %d lacks property %q", i, key)
			}
			col[i] = v
		}
		if err := ds.AddColumn(key, col); err != nil {
			return nil, err
		}
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

func unmarshalGeometry(g geometry) (geom.Polygon, error) {
	switch g.Type {
	case "Polygon":
		var rings [][][2]float64
		if err := json.Unmarshal(g.Coordinates, &rings); err != nil {
			return geom.Polygon{}, err
		}
		return largestRing([][][][2]float64{rings})
	case "MultiPolygon":
		var multi [][][][2]float64
		if err := json.Unmarshal(g.Coordinates, &multi); err != nil {
			return geom.Polygon{}, err
		}
		return largestRing(multi)
	default:
		return geom.Polygon{}, fmt.Errorf("unsupported geometry type %q", g.Type)
	}
}

// largestRing picks the largest-area ring across all polygons of the
// feature as the contiguity boundary (same policy as the shapefile loader).
// Every coordinate of every ring must lie within ±geom.MaxCoord, the range
// contiguity extraction keys exactly.
func largestRing(multi [][][][2]float64) (geom.Polygon, error) {
	var best geom.Ring
	bestArea := -1.0
	for _, rings := range multi {
		for _, raw := range rings {
			ring := make(geom.Ring, 0, len(raw))
			for _, c := range raw {
				p := geom.Point{X: c[0], Y: c[1]}
				if !p.InRange() {
					return geom.Polygon{}, fmt.Errorf("coordinate (%g, %g) outside ±%g", p.X, p.Y, geom.MaxCoord)
				}
				ring = append(ring, p)
			}
			if len(ring) > 1 && ring[0] == ring[len(ring)-1] {
				ring = ring[:len(ring)-1]
			}
			if a := ring.Area(); a > bestArea {
				best, bestArea = ring, a
			}
		}
	}
	if len(best) < 3 {
		return geom.Polygon{}, fmt.Errorf("no usable ring")
	}
	return geom.Polygon{Outer: best}, nil
}
