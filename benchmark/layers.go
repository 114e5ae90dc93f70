package main

import (
	"fmt"
	"math"
)

// reconTolerance is the relative slack of the reconciliation checks.
const reconTolerance = 0.05

// eventCap is the number of non-terminal events a job's stream keeps; a
// capped stream carries one more, the done event.
const eventCap = 4096

// layerMetrics computes the per-layer metrics of a traced run from the
// replayed requests, the spans, the HTTP results and the /metrics deltas,
// adds the layer times behind the shares to detail, and runs the
// reconciliation checks.
func layerMetrics(results []result, checks []checked, reps []replayed, tr *tracer,
	delta func(string) float64, stateBytes int64, detail map[string]float64) (map[string]float64, []reconCheck) {
	m := make(map[string]float64)
	var (
		decode, encode, respBytes, overhead, solve, feas, cons, search, iters []float64
		moves, improvements, evals, e2e                                       float64
		areas, unassigned, busy, solveSum, seamSum, cutPlanSum, cutSolve      float64
		searchSum                                                             float64
		seamMoves                                                             []float64
		jobE2E, jobSubmit, jobFirst, coldE2E, coldOverhead, coldJobs          float64
	)
	for i := range reps {
		r := &reps[i]
		decode = append(decode, r.Decode)
		encode = append(encode, r.Encode)
		respBytes = append(respBytes, float64(r.ResponseBytes))
		overhead = append(overhead, r.overhead())
		solve = append(solve, r.Solve)
		feas = append(feas, r.Feasibility)
		cons = append(cons, r.Construction)
		search = append(search, r.LocalSearch-r.SeamRepair)
		searchSum += r.LocalSearch
		iters = append(iters, float64(r.Iterations))
		moves += float64(r.Moves)
		improvements += float64(r.Improvements)
		evals += float64(r.CandidateEvals)
		e2e += r.latency()
		areas += float64(r.Areas)
		unassigned += float64(r.Unassigned)
		busy += r.Feasibility + r.Construction + r.LocalSearch
		solveSum += r.Solve
		seamSum += r.SeamRepair
		if r.Result.Op.CutShards > 0 {
			cutPlanSum += r.CutPlan
			cutSolve += r.CutPlan + r.Solve
			seamMoves = append(seamMoves, float64(r.SeamMoves))
		}
		if r.isJob() {
			lat := r.Result.Latency.Seconds()
			jobE2E += lat
			jobSubmit += r.Result.Submit.Seconds()
			jobFirst += r.Result.FirstIncumbent.Seconds()
			if r.Result.Op.Class == classCold {
				coldJobs++
				coldE2E += r.latency()
				coldOverhead += r.overhead()
			}
		}
	}
	var gen, prepB []float64
	for _, r := range reps {
		if r.Census > 0 {
			gen = append(gen, r.Census)
			prepB = append(prepB, r.Prep)
		}
	}
	// Set-up generations (mixed_sync builds its datasets before the timed
	// phase) are not part of any request, but count all the same.
	for _, s := range tr.spans {
		if s.Req < 0 {
			switch s.Layer {
			case "census.generate":
				gen = append(gen, s.End-s.Start)
			case "prep.build":
				prepB = append(prepB, s.End-s.Start)
			}
		}
	}
	hitRatio := func(prefix string) float64 {
		h, miss := delta(prefix+"_hits_total"), delta(prefix+"_misses_total")
		return ratio(h, h+miss)
	}

	m["server.decode_s"] = mean(decode)
	m["server.encode_s"] = mean(encode)
	m["server.response_bytes"] = mean(respBytes)
	m["server.overhead_s"] = median(overhead)
	m["solvecache.queue_wait_share"] = ratio(delta("emp_solve_queue_wait_duration_seconds_sum"), e2e)
	m["solvecache.result_hit_ratio"] = hitRatio("emp_result_cache")
	m["solvecache.dataset_hit_ratio"] = hitRatio("emp_dataset_cache")
	m["solvecache.rejected"] = delta("emp_solve_queue_rejected_total")
	m["census.generate_s"] = mean(gen)
	m["census.generations"] = delta("emp_dataset_cache_misses_total")
	m["prep.build_s"] = mean(prepB)
	m["fact.solve_s"] = mean(solve)
	m["fact.feasibility_s"] = mean(feas)
	m["fact.construction_s"] = mean(cons)
	m["fact.iterations"] = mean(iters)
	m["fact.unassigned_ratio"] = ratio(unassigned, areas)
	m["fact.busy_over_wall"] = ratio(busy, solveSum)
	m["fact.seam_repair_share"] = ratio(seamSum, solveSum)
	m["fact.seam_moves"] = mean(seamMoves)
	m["shard.cut_plan_share"] = ratio(cutPlanSum, cutSolve)
	m["tabu.search_s"] = mean(search)
	m["tabu.moves"] = ratio(moves, float64(len(reps)))
	m["tabu.moves_per_s"] = ratio(moves, searchSum)
	m["tabu.candidate_evals"] = ratio(evals, float64(len(reps)))
	m["tabu.evals_per_move"] = ratio(evals, moves)
	m["tabu.improvements"] = ratio(improvements, float64(len(reps)))
	m["jobs.overhead_share"] = ratio(coldOverhead, coldE2E)
	m["jobs.submit_share"] = ratio(jobSubmit, jobE2E)
	m["jobs.first_incumbent_share"] = ratio(jobFirst, jobE2E)
	jobStreams(m, results, checks)
	m["jobs.warm_starts"] = delta("emp_jobs_warmstart_total")
	m["durable.checkpoints_written"] = delta("emp_durable_checkpoints_written_total")
	m["durable.state_bytes"] = float64(stateBytes)
	m["durable.corrupt_records"] = delta("emp_durable_corrupt_records_total")
	_, _, m["quality.p_bound_ratio"] = quality(results, checks)

	// The seconds behind the shares, for the workloads that have them.
	detail["shard.cut_plan_s"] = ratio(cutPlanSum, float64(len(seamMoves)))
	detail["fact.seam_repair_s"] = ratio(seamSum, float64(len(seamMoves)))
	detail["solvecache.queue_wait_s"] = ratio(delta("emp_solve_queue_wait_duration_seconds_sum"), float64(len(reps)))
	detail["jobs.overhead_s"] = ratio(coldOverhead, coldJobs)
	detail["replayed"] = float64(len(reps))

	return m, reconcile(results, reps, delta)
}

// jobStreams fills the metrics read from the jobs' event streams and stored
// results.
func jobStreams(m map[string]float64, results []result, checks []checked) {
	var jobs, events, capped, warmMoves, coldMoves float64
	for i, r := range results {
		if checks[i].Err != nil || (r.Op.Class != classCold && r.Op.Class != classWarm) {
			continue
		}
		jobs++
		events += float64(r.Events)
		if r.Events > eventCap {
			capped++
		}
		if r.Op.Class == classWarm {
			warmMoves += float64(r.Resp.TabuMoves)
		} else {
			coldMoves += float64(r.Resp.TabuMoves)
		}
	}
	m["jobs.events_per_job"] = ratio(events, jobs)
	m["jobs.capped_job_ratio"] = ratio(capped, jobs)
	m["jobs.warm_moves_ratio"] = ratio(warmMoves, coldMoves)
}

// reconcile runs the checks that tie the replay to the HTTP phase.
func reconcile(results []result, reps []replayed, delta func(string) float64) []reconCheck {
	var out []reconCheck

	// The fact phases account for the solve's wall time where they are wall
	// times (whole-graph solves), summed over those requests.
	var phases, wall, worst float64
	n := 0
	for _, r := range reps {
		if !r.wholeGraph() {
			continue
		}
		n++
		p := r.Feasibility + r.Construction + r.LocalSearch
		phases += p
		wall += r.Solve
		worst = math.Max(worst, math.Abs(p-r.Solve)/r.Solve)
	}
	dev := math.Abs(phases-wall) / math.Max(wall, 1e-12)
	out = append(out, reconCheck{
		Name:   "fact_phases_sum_to_solve",
		OK:     n == 0 || dev <= reconTolerance,
		Detail: fmt.Sprintf("%d whole-graph solves: phases %.4fs vs SolveCtx %.4fs (%.2f%%; worst single request %.2f%%)", n, phases, wall, 100*dev, 100*worst),
	})

	// The replayed layers take no longer than the requests did: summed over
	// the workload, since single requests jitter by more than the tolerance
	// on a shared machine.
	var layers, latency float64
	exceed := 0
	for i := range reps {
		r := &reps[i]
		layers += r.layerSum()
		latency += r.latency()
		if r.overhead() < -reconTolerance*r.latency() {
			exceed++
		}
	}
	out = append(out, reconCheck{
		Name: "overhead_nonnegative",
		OK:   layers <= (1+reconTolerance)*latency,
		Detail: fmt.Sprintf("replayed layers over latency, summed over %d requests: %.3f (limit %.2f); %d single requests exceed the limit",
			len(reps), ratio(layers, latency), 1+reconTolerance, exceed),
	})

	// Every designed repeat, and nothing else, is a result-cache hit.
	hits := 0
	for _, r := range results {
		if r.Op.Class == classHit {
			hits++
		}
	}
	gotHits, gotMisses := delta("emp_result_cache_hits_total"), delta("emp_result_cache_misses_total")
	out = append(out, reconCheck{
		Name:   "result_hit_ratio_as_designed",
		OK:     gotHits == float64(hits) && gotHits+gotMisses == float64(len(results)),
		Detail: fmt.Sprintf("designed %d hits of %d requests; /metrics counted %.0f hits, %.0f misses", hits, len(results), gotHits, gotMisses),
	})

	// The replay reproduces the server's answer.
	mismatched := 0
	for _, r := range reps {
		resp := r.Result.Resp
		if r.P != resp.P || math.Abs(r.H-resp.HeteroAfter) > 1e-9*math.Max(math.Abs(r.H), 1) {
			mismatched++
		}
	}
	out = append(out, reconCheck{
		Name:   "replay_matches_response",
		OK:     mismatched == 0,
		Detail: fmt.Sprintf("%d of %d replayed requests differ from the HTTP response in p or H", mismatched, len(reps)),
	})
	return out
}
