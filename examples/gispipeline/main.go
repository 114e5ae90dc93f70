// GIS pipeline: shapefile in, regions and maps out.
//
// The paper's authors prepared their data by joining census shapefiles in
// QGIS. This example shows the equivalent end-to-end flow in pure Go:
//
//  1. write a dataset as an ESRI shapefile (.shp + .dbf),
//
//  2. load it back, deriving rook contiguity from the polygon geometry,
//
//  3. run an EMP query,
//
//  4. export the solution as an SVG choropleth and a GeoJSON layer, and
//
//  5. compare against the AZP-Tabu fixed-k baseline at the same k.
//
//     go run ./examples/gispipeline
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"emp"
)

func main() {
	log.SetFlags(0)
	tmp, err := os.MkdirTemp("", "emp-gis")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	// 1. A dataset on disk in GIS formats.
	ds, err := emp.GenerateDataset(emp.DatasetOptions{Name: "bay", Areas: 600, Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	base := filepath.Join(tmp, "tracts")
	if err := emp.SaveShapefile(ds, base); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s.shp / %s.dbf\n", base, base)

	// 2. Load it back the way a user with real census data would.
	loaded, err := emp.LoadShapefile(base, emp.ShapefileOptions{
		Name:          "tracts",
		Dissimilarity: "HOUSEHOLDS",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d tracts, %d components\n", loaded.N(), loaded.Components())

	// 3. An EMP query with three constraint families.
	set, err := emp.ParseConstraints(`
		MIN(POP16UP) <= 3000;
		AVG(EMPLOYED) in [1200, 3800];
		SUM(TOTALPOP) >= 25000`)
	if err != nil {
		log.Fatal(err)
	}
	sol, err := emp.Solve(loaded, set, emp.Options{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EMP: p = %d regions, %d unassigned, H = %.4g\n",
		sol.P, len(sol.UnassignedAreas()), sol.Heterogeneity())

	// 4. Maps.
	svgPath := filepath.Join(tmp, "regions.svg")
	f, err := os.Create(svgPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := emp.RenderSVG(f, loaded, sol.Assignment(), emp.RenderSVGOptions{Width: 600}); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	gjPath := filepath.Join(tmp, "regions.geojson")
	g, err := os.Create(gjPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := emp.WriteGeoJSON(g, loaded, sol.Assignment()); err != nil {
		log.Fatal(err)
	}
	if err := g.Close(); err != nil {
		log.Fatal(err)
	}
	svgInfo, _ := os.Stat(svgPath)
	gjInfo, _ := os.Stat(gjPath)
	fmt.Printf("rendered %s (%d bytes) and %s (%d bytes)\n",
		filepath.Base(svgPath), svgInfo.Size(), filepath.Base(gjPath), gjInfo.Size())

	// 5. AZP-Tabu baseline at the same k: minimizes H directly, but blind
	// to the constraints.
	az, err := emp.SolveAZP(loaded, sol.P, emp.AZPOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AZP-Tabu at k = %d: H = %.4g (constraint-free baseline)\n", az.K, az.Objective)

	// How many AZP regions would actually satisfy the EMP query?
	sums := make([]float64, az.K)
	pop := loaded.Column("TOTALPOP")
	for a, c := range az.Assignment {
		sums[c] += pop[a]
	}
	ok := 0
	for _, sum := range sums {
		if sum >= 25000 {
			ok++
		}
	}
	fmt.Printf("AZP regions meeting SUM(TOTALPOP) >= 25000: %d of %d (EMP guarantees all %d)\n",
		ok, az.K, sol.P)
}
