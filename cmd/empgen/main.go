// Command empgen generates synthetic census datasets and writes them to
// JSON files consumable by empquery and the emp library.
//
// Usage:
//
//	empgen -name 2k -out 2k.json            # one of the paper's datasets
//	empgen -areas 5000 -states 4 -components 2 -seed 7 -out custom.json
//	empgen -name 50k -scale 0.1 -out small50k.json
//	empgen -list                             # show the named datasets
//
// A -scale outside (0, 1] exits with status 2.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"emp/internal/census"
	"emp/internal/data"
	"emp/internal/shapefile"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("empgen: ")
	var (
		name       = flag.String("name", "", "named dataset (1k..50k); overrides -areas")
		areas      = flag.Int("areas", 0, "number of areas for a custom dataset")
		states     = flag.Int("states", 1, "number of state blocks")
		components = flag.Int("components", 1, "number of connected components")
		seed       = flag.Int64("seed", 1, "random seed")
		scale      = flag.Float64("scale", 1, "scale factor for named datasets (0,1]")
		out        = flag.String("out", "", "output JSON path (required unless -list or -shp)")
		shpBase    = flag.String("shp", "", "also write <base>.shp/<base>.dbf ESRI shapefiles")
		list       = flag.Bool("list", false, "list the named datasets and exit")
	)
	flag.Parse()
	if err := census.CheckScale(*scale); err != nil {
		log.Printf("invalid -scale: %v", err)
		flag.Usage()
		os.Exit(2)
	}

	if *list {
		fmt.Println("name  areas  states  components")
		for _, n := range census.SizeNames() {
			sz := census.Sizes[n]
			fmt.Printf("%-5s %6d %7d %11d\n", n, sz.Areas, sz.States, sz.Components)
		}
		return
	}
	if *out == "" && *shpBase == "" {
		log.Fatal("-out or -shp is required (or use -list)")
	}

	var ds *data.Dataset
	var err error
	switch {
	case *name != "" && *scale < 1:
		ds, err = census.Scaled(*name, *scale, *seed)
	case *name != "":
		ds, err = census.NamedSeeded(*name, *seed)
	case *areas > 0:
		ds, err = census.Generate(census.Options{
			Name:       fmt.Sprintf("custom-%d", *areas),
			Areas:      *areas,
			States:     *states,
			Components: *components,
			Seed:       *seed,
			Jitter:     -1,
		})
	default:
		log.Fatal("either -name or -areas is required")
	}
	if err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		if err := ds.SaveJSON(*out); err != nil {
			log.Fatal(err)
		}
		fi, err := os.Stat(*out)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s: %d areas, %d components, %d attributes, %d bytes\n",
			*out, ds.N(), ds.Components(), len(ds.AttrNames), fi.Size())
	}
	if *shpBase != "" {
		if err := shapefile.SaveDataset(ds, *shpBase); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s.shp and %s.dbf\n", *shpBase, *shpBase)
	}
}
