package fact

import "emp/internal/obs"

// pkgMetrics holds the registry-bound telemetry of the FaCT driver: the
// solve counters and one span histogram per phase. All fields are nil until
// SetMetrics binds a registry; obs types are nil-receiver safe, so Solve
// pays one branch per phase when telemetry is absent.
type pkgMetrics struct {
	reg             *obs.Registry
	solves          *obs.Counter
	infeasible      *obs.Counter
	degraded        *obs.Counter
	shardRetries    *obs.Counter
	panicsRecovered *obs.Counter
	warmStarts      *obs.Counter
	spanSolve       *obs.Histogram
	spanFeas        *obs.Histogram
	spanCons        *obs.Histogram
	spanSearch      *obs.Histogram
	spanShard       *obs.Histogram
	spanShardSolve  *obs.Histogram
	spanCut         *obs.Histogram
	spanSeam        *obs.Histogram
	shardSolves     *obs.Counter
	shardInfeasible *obs.Counter
	cutSolves       *obs.Counter
	cutShards       *obs.Counter
	seamMoves       *obs.Counter
}

var met pkgMetrics

// SetMetrics binds the package's process-wide counters to the registry (nil
// unbinds). Call during startup wiring, before solves begin.
func SetMetrics(r *obs.Registry) {
	if r == nil {
		met = pkgMetrics{}
		return
	}
	const phaseHelp = "Wall time of fact.Solve phases."
	met = pkgMetrics{
		reg: r,
		solves: r.Counter("emp_solve_total",
			"Completed fact.Solve runs (including infeasible outcomes)."),
		infeasible: r.Counter("emp_solve_infeasible_total",
			"fact.Solve runs proven infeasible in phase 1."),
		degraded: r.Counter("emp_solve_degraded_total",
			"Solves that returned a degraded (best-so-far) partition instead of an error: deadline hit post-construction, or shards lost to panics/exhausted retries."),
		shardRetries: r.Counter("emp_shard_retries_total",
			"Shard sub-solve attempts beyond the first (transient failures retried with backoff)."),
		panicsRecovered: r.Counter("emp_panics_recovered_total",
			"Panics recovered at shard and multi-start isolation boundaries."),
		warmStarts: r.Counter("emp_solve_warmstart_total",
			"Construction iterations seeded from a prior partition (Config.WarmStart)."),
		spanSolve: r.Histogram("emp_solve_duration",
			"End-to-end fact.Solve latency distribution (root solve span).", nil),
		spanFeas:   r.Histogram(`emp_solve_phase_duration{phase="feasibility"}`, phaseHelp, nil),
		spanCons:   r.Histogram(`emp_solve_phase_duration{phase="construction"}`, phaseHelp, nil),
		spanSearch: r.Histogram(`emp_solve_phase_duration{phase="local_search"}`, phaseHelp, nil),
		spanShard: r.Histogram(`emp_solve_phase_duration{phase="shard"}`,
			"Wall time of the sharded pipeline: decomposition, sub-solves and merge.", nil),
		spanShardSolve: r.Histogram("emp_shard_solve_duration",
			"Wall time of individual connected-component sub-solves.", nil),
		shardSolves: r.Counter("emp_shard_solves_total",
			"Connected-component sub-solves executed by the sharded pipeline."),
		shardInfeasible: r.Counter("emp_shard_infeasible_total",
			"Sub-solves whose component was individually infeasible (areas left unassigned)."),
		spanCut: r.Histogram(`emp_solve_phase_duration{phase="cut"}`,
			"Wall time of the multilevel cut partitioner (cut-sharded solves).", nil),
		spanSeam: r.Histogram(`emp_solve_phase_duration{phase="seam_repair"}`,
			"Wall time of the boundary-repair pass that stitches cut-shard seams.", nil),
		cutSolves: r.Counter("emp_cut_solves_total",
			"Solves that ran the cut-sharded pipeline (CutShards >= 2 and the partitioner produced a real split)."),
		cutShards: r.Counter("emp_cut_shards_total",
			"Cut-partition sub-instances solved across all cut-sharded solves."),
		seamMoves: r.Counter("emp_seam_moves_total",
			"Accepted moves of the seam-repair Tabu pass (cut-sharded solves)."),
	}
}

// emitSolveEvent streams a structured summary of one finished solve to the
// registry's sink (no-op without a sink or when disabled).
func emitSolveEvent(res *Result, localSearch string) {
	r := met.reg
	if r == nil || !r.Enabled() || !r.HasSink() {
		return
	}
	r.Emit(obs.Event{
		Kind: "solve",
		Name: "fact",
		Fields: map[string]float64{
			"p":              float64(res.P),
			"degraded":       boolField(res.Degraded),
			"unassigned":     float64(res.Unassigned),
			"iterations":     float64(res.Iterations),
			"hetero_before":  res.HeteroBefore,
			"hetero_after":   res.HeteroAfter,
			"moves":          float64(res.TabuMoves),
			"improvements":   float64(res.Improvements),
			"shards":         float64(res.Shards),
			"cut_shards":     float64(res.CutShards),
			"seam_moves":     float64(res.SeamMoves),
			"feasibility_ns": float64(res.FeasibilityTime.Nanoseconds()),
			"construct_ns":   float64(res.ConstructionTime.Nanoseconds()),
			"search_ns":      float64(res.LocalSearchTime.Nanoseconds()),
		},
		Labels: map[string]string{"local_search": localSearch},
	})
}

// boolField folds a flag into the numeric event schema.
func boolField(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
