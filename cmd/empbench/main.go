// Command empbench regenerates the paper's evaluation tables and figures on
// the synthetic census substrate.
//
// Usage:
//
//	empbench -list                      # show available experiment ids
//	empbench -experiment table3         # one experiment
//	empbench -experiment all -scale 0.1 # the whole evaluation, small
//	empbench -experiment fig15 -scale 1 # full-size scalability run
//	empbench -experiment table3 -scale 0.05 -trace t.jsonl
//	                                    # plus telemetry events as JSONL,
//	                                    # rendered by `empquery trace t.jsonl`
//
// Dataset sizes are scaled by -scale (default 0.25) so the suite completes
// in minutes on one core; the paper's absolute sizes need -scale 1 and
// correspondingly more time. Shapes (orderings, trends, crossovers) are
// preserved across scales; EXPERIMENTS.md records a reference run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"emp/internal/experiments"
	"emp/internal/obs"
	"emp/internal/obswire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("empbench: ")
	var (
		experiment = flag.String("experiment", "all", "experiment id or 'all'")
		scale      = flag.Float64("scale", 0.25, "dataset scale (0,1]")
		seed       = flag.Int64("seed", 1, "random seed")
		iterations = flag.Int("iterations", 1, "FaCT construction iterations")
		noTabu     = flag.Bool("notabu", false, "skip the local-search phase")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		trace      = flag.String("trace", "", "write solver telemetry events as JSONL to this file")
	)
	flag.Parse()

	if *list {
		for _, name := range experiments.Names() {
			fmt.Println(name)
		}
		return
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		defer f.Close()
		reg := obs.Default()
		reg.SetSink(obs.NewJSONLSink(f))
		reg.SetEnabled(true)
		obswire.Enable(reg)
		defer obswire.Enable(nil)
	}
	cfg := experiments.Config{
		Scale:      *scale,
		Seed:       *seed,
		Iterations: *iterations,
		SkipTabu:   *noTabu,
	}
	ids := experiments.Names()
	if *experiment != "all" {
		ids = strings.Split(*experiment, ",")
	}
	for _, id := range ids {
		runner, ok := experiments.Registry[id]
		if !ok {
			log.Fatalf("unknown experiment %q (use -list)", id)
		}
		start := time.Now()
		tables, err := runner(cfg)
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		for _, t := range tables {
			fmt.Println(t.Render())
		}
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Truncate(time.Millisecond))
	}
}
