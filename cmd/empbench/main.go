// Command empbench regenerates the paper's evaluation tables and figures on
// the synthetic census substrate.
//
// Usage:
//
//	empbench -list                      # show available experiment ids
//	empbench -experiment table3         # one experiment
//	empbench -experiment all -scale 0.1 # the whole evaluation, small
//	empbench -experiment fig15 -scale 1 # full-size scalability run
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
		benchTabu  = flag.Bool("benchtabu", false, "run the tabu kernel benchmark and write BENCH_tabu.json")
		benchObs   = flag.Bool("benchobs", false, "run the telemetry overhead benchmark and write BENCH_obs.json")
		benchServe = flag.Bool("benchserve", false, "run the serving throughput benchmark and write BENCH_serve.json")
		benchFault = flag.Bool("benchfault", false, "run the fault-injection/degradation benchmark and write BENCH_fault.json")
		benchPrep  = flag.Bool("benchprep", false, "run the prepared-dataset artifact benchmark and write BENCH_prep.json")
		benchJobs  = flag.Bool("benchjobs", false, "run the async job API benchmark and write BENCH_jobs.json")
		benchRecov = flag.Bool("benchrecovery", false, "run the durable-state recovery benchmark and write BENCH_recovery.json")
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
	if *benchObs {
		cfg := experiments.Config{Scale: *scale, Seed: *seed}
		res, err := experiments.WriteObsBenchTraced(cfg, "BENCH_obs.json", "TRACE_obs.jsonl")
		if err != nil {
			log.Fatalf("benchobs: %v", err)
		}
		fmt.Printf("tabu improve on %s (%d areas, %d regions): telemetry off %.3fs, on %.3fs (%.2f%%), full flight-recorder path %.3fs (%.2f%%, %d curve samples)\n",
			res.Dataset, res.Areas, res.Regions, res.SecondsOff, res.SecondsOn, res.OverheadPct,
			res.SecondsFull, res.OverheadFullPct, res.CurveSamples)
		fmt.Println("wrote BENCH_obs.json and TRACE_obs.jsonl")
		return
	}
	if *benchServe {
		cfg := experiments.Config{Scale: *scale, Seed: *seed}
		res, err := experiments.WriteServeBench(cfg, "BENCH_serve.json")
		if err != nil {
			log.Fatalf("benchserve: %v", err)
		}
		fmt.Printf("serve on %s scale %g: cold %.1f req/s, hot %.1f req/s (%.0fx), dedup %d concurrent in %.3fs (%d joined)\n",
			res.Dataset, res.Scale, res.ColdPerSec, res.HotPerSec, res.HotColdSpeedup,
			res.DedupConcurrent, res.DedupSeconds, res.DedupJoined)
		fmt.Println("wrote BENCH_serve.json")
		return
	}
	if *benchFault {
		cfg := experiments.Config{Scale: *scale, Seed: *seed}
		res, err := experiments.WriteFaultBench(cfg, "BENCH_fault.json")
		if err != nil {
			log.Fatalf("benchfault: %v", err)
		}
		fmt.Printf("fault on %s (%d areas, %d components): baseline %.3fs p=%d H=%.1f; %d deadline points; panic leg survived=%v (p=%d, %d unassigned, %d panics recovered); retry leg ok=%v (%d retries)\n",
			res.Dataset, res.Areas, res.Components, res.BaselineSeconds, res.BaselineP, res.BaselineHetero,
			len(res.DeadlinePoints), res.PanicSurvived, res.PanicP, res.PanicUnassigned, res.PanicsRecovered,
			res.RetrySucceeded, res.RetryShardRetries)
		fmt.Println("wrote BENCH_fault.json")
		return
	}
	if *benchPrep {
		cfg := experiments.Config{Scale: *scale, Seed: *seed}
		res, err := experiments.WritePrepBench(cfg, "BENCH_prep.json")
		if err != nil {
			log.Fatalf("benchprep: %v", err)
		}
		fmt.Printf("prep on %s (%d areas): solve %.3fs -> %.3fs (%.2fx, build %.3fs), cold %.1f -> %.1f solves/s, identical=%v, %.1f allocs/move\n",
			res.Dataset, res.Areas, res.UnpreparedSeconds, res.PreparedSeconds, res.SolveSpeedup,
			res.ArtifactBuildSecond, res.ColdSolvesPerSec, res.PreparedSolvesPerSec, res.Identical, res.AllocsPerMove)
		fmt.Println("wrote BENCH_prep.json")
		return
	}
	if *benchJobs {
		cfg := experiments.Config{Scale: *scale, Seed: *seed}
		res, err := experiments.WriteJobsBench(cfg, "BENCH_jobs.json")
		if err != nil {
			log.Fatalf("benchjobs: %v", err)
		}
		fmt.Printf("jobs on %s scale %g: sync %.3fs, async %.3fs (submit %.1fms, first incumbent %.0fms, converged %.0fms, %d incumbents, final event matches=%v); warm resubmit %d moves vs cold %d (%.1f%% saved, warm_from=%v)\n",
			res.Dataset, res.Scale, res.SyncSeconds, res.AsyncSeconds, res.SubmitMillis,
			res.FirstIncumbentMs, res.ConvergenceMs, res.IncumbentEvents, res.FinalEventMatchesResult,
			res.WarmMoves, res.ColdMoves, res.WarmMovesSavedPct, res.WarmFromSet)
		fmt.Println("wrote BENCH_jobs.json")
		return
	}
	if *benchRecov {
		cfg := experiments.Config{Scale: *scale, Seed: *seed}
		res, err := experiments.WriteRecoveryBench(cfg, "BENCH_recovery.json")
		if err != nil {
			log.Fatalf("benchrecovery: %v", err)
		}
		fmt.Printf("recovery on %s scale %g: restored boot served %d/%d from snapshot (%.3fs -> %.3fs per request, %.0fx), %d warm seed(s) survived; checkpoint resume p=%d H=%.4g after %d moves vs cold %d moves (%.1f%% saved, warm_from=%v, never_worse=%v)\n",
			res.Dataset, res.Scale, res.RestoredHits, res.SnapshotRequests,
			res.ColdSolveSeconds, res.RestoredServeSeconds, res.SnapshotSpeedup, res.RestoredWarmSeeds,
			res.ResumedP, res.ResumedH, res.ResumedMoves, res.ColdMoves,
			res.MovesSavedPct, res.WarmFromCheckpoint, res.ResumedNeverWorse)
		fmt.Println("wrote BENCH_recovery.json")
		return
	}
	if *benchTabu {
		cfg := experiments.Config{Scale: *scale, Seed: *seed}
		res, err := experiments.WriteTabuBench(cfg, "BENCH_tabu.json")
		if err != nil {
			log.Fatalf("benchtabu: %v", err)
		}
		fmt.Printf("tabu improve on %s (%d areas, %d regions): naive %.3fs, kernel %.3fs, speedup %.2fx\n",
			res.Dataset, res.Areas, res.Regions, res.SecondsBefore, res.SecondsAfter, res.Speedup)
		fmt.Println("wrote BENCH_tabu.json")
		return
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
