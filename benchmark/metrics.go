package main

// unbounded is the Bound of a per-layer metric: it has no regression bound,
// so -compare only judges whether it improved. A Bound of 0 is a real bound:
// any worsening is a regression.
const unbounded = -1

// metricSpec describes one reported metric. The end-to-end specs mirror
// BENCHMARK.json (the self-test keeps the two in step); Bound is the share of
// the parent's median by which the metric may worsen before a change counts
// as a regression, or unbounded.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists the metrics a user of empserve sees that hold a bound on a
// shared 2-vCPU machine. Every workload reports every one. p_mean and
// h_mean are the paper's objective, p first, measured on the workload's
// anchor requests, whose inputs are the same for every seed (see
// workload.go), so that they are exact and any lost region is a regression.
//
// setup_s keeps the planned bound of max(10%, 50 ms) on the workload with the
// shortest set-up: jobs_durable sets up in about 0.1 s, so 50 ms is half of
// it, and 0.25 is the largest bound BENCHMARK.json may hold.
var endToEnd = []metricSpec{
	{"p_mean", "regions", "higher", 0},
	{"h_mean", "H", "lower", 0.001},
	{"setup_s", "s", "lower", 0.25},
}

// timedPhase lists the latency, throughput and memory of the timed phase.
// They were planned as end-to-end metrics with a 10% bound, but across ten
// seeds on a shared 2-vCPU machine each spread by about 10% or more on at
// least one workload (README.md has the figures), so they are per-layer
// metrics without a bound. Every run records them, and -compare reads them.
var timedPhase = []metricSpec{
	{"solve_p50_s", "s", "lower", unbounded},
	{"variant_p50_s", "s", "lower", unbounded},
	{"ops_per_s", "1/s", "higher", unbounded},
	{"peak_rss_mb", "MiB", "lower", unbounded},
}

// perLayer lists the timed-phase metrics and the metrics of single layers,
// measured from outside the program by the traced run. Times of layers that
// only some workloads exercise (the cut partitioner, seam repair, the job
// path) are reported as shares of a time every workload has, so that a
// workload that does not use the layer reads 0 without reporting a time of 0.
var perLayer = append(append([]metricSpec(nil), timedPhase...), []metricSpec{
	{"server.decode_s", "s", "lower", unbounded},
	{"server.encode_s", "s", "lower", unbounded},
	{"server.response_bytes", "bytes", "lower", unbounded},
	{"server.overhead_s", "s", "lower", unbounded},
	{"solvecache.queue_wait_share", "ratio", "lower", unbounded},
	{"solvecache.result_hit_ratio", "ratio", "higher", unbounded},
	{"solvecache.dataset_hit_ratio", "ratio", "higher", unbounded},
	{"solvecache.rejected", "count", "lower", unbounded},
	{"census.generate_s", "s", "lower", unbounded},
	{"census.generations", "count", "lower", unbounded},
	{"prep.build_s", "s", "lower", unbounded},
	{"fact.solve_s", "s", "lower", unbounded},
	{"fact.feasibility_s", "s", "lower", unbounded},
	{"fact.construction_s", "s", "lower", unbounded},
	{"fact.iterations", "count", "lower", unbounded},
	{"fact.unassigned_ratio", "ratio", "lower", unbounded},
	{"fact.busy_over_wall", "ratio", "higher", unbounded},
	{"fact.seam_repair_share", "ratio", "lower", unbounded},
	{"fact.seam_moves", "count", "lower", unbounded},
	{"shard.cut_plan_share", "ratio", "lower", unbounded},
	{"tabu.search_s", "s", "lower", unbounded},
	{"tabu.moves", "count", "lower", unbounded},
	{"tabu.moves_per_s", "1/s", "higher", unbounded},
	{"tabu.candidate_evals", "count", "lower", unbounded},
	{"tabu.evals_per_move", "count", "lower", unbounded},
	{"tabu.improvements", "count", "higher", unbounded},
	{"jobs.overhead_share", "ratio", "lower", unbounded},
	{"jobs.submit_share", "ratio", "lower", unbounded},
	{"jobs.first_incumbent_share", "ratio", "lower", unbounded},
	{"jobs.events_per_job", "count", "lower", unbounded},
	{"jobs.capped_job_ratio", "ratio", "lower", unbounded},
	{"jobs.warm_moves_ratio", "ratio", "lower", unbounded},
	{"jobs.warm_starts", "count", "higher", unbounded},
	{"durable.checkpoints_written", "count", "lower", unbounded},
	{"durable.state_bytes", "bytes", "lower", unbounded},
	{"durable.corrupt_records", "count", "lower", unbounded},
	{"quality.p_bound_ratio", "ratio", "higher", unbounded},
}...)
