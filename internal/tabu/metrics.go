package tabu

import (
	"emp/internal/obs"
	"emp/internal/region"
)

// Counters is the per-run hot-path work profile of a local search. The
// searchers accumulate these as plain ints (the search is single-goroutine)
// and flush them into the registry bound by SetMetrics once per Improve
// call, so the per-candidate cost of telemetry is an ordinary integer
// increment regardless of whether a registry is bound.
//
// The naive reference searcher in the package tests counts the same
// quantities but does different amounts of work by design (that asymmetry
// is the point of the kernel), so the values are comparable within one
// implementation only.
type Counters struct {
	// CandidateEvals counts objective DeltaMove evaluations.
	CandidateEvals int64
	// HeapPushes and HeapPops count candidate-heap operations, including
	// the pick loop's pop/re-push churn and removals.
	HeapPushes, HeapPops int64
	// TabuRejections counts candidates skipped because they were tabu
	// without meeting the aspiration criterion.
	TabuRejections int64
	// RemovabilityPasses counts donor-side contiguity computations (whole-
	// region articulation passes).
	RemovabilityPasses int64
}

// Add folds o into c; callers that aggregate multiple runs (e.g. the
// sharded solve pipeline summing per-component search profiles) use it to
// keep one global profile.
func (c *Counters) Add(o Counters) {
	c.CandidateEvals += o.CandidateEvals
	c.HeapPushes += o.HeapPushes
	c.HeapPops += o.HeapPops
	c.TabuRejections += o.TabuRejections
	c.RemovabilityPasses += o.RemovabilityPasses
}

// addPeriods adds q times the growth from base to now to c: the work of q
// more periods that each repeat a proven search cycle (cycle.go).
func (c *Counters) addPeriods(now, base Counters, q int64) {
	c.CandidateEvals += q * (now.CandidateEvals - base.CandidateEvals)
	c.HeapPushes += q * (now.HeapPushes - base.HeapPushes)
	c.HeapPops += q * (now.HeapPops - base.HeapPops)
	c.TabuRejections += q * (now.TabuRejections - base.TabuRejections)
	c.RemovabilityPasses += q * (now.RemovabilityPasses - base.RemovabilityPasses)
}

// pkgMetrics holds the registry-bound counters; nil until SetMetrics binds
// a registry (obs counters are nil-receiver safe).
type pkgMetrics struct {
	runs           *obs.Counter
	moves          *obs.Counter
	replayedMoves  *obs.Counter
	improvements   *obs.Counter
	candidateEvals *obs.Counter
	heapPushes     *obs.Counter
	heapPops       *obs.Counter
	tabuRejections *obs.Counter
	removability   *obs.Counter
	span           *obs.Histogram
}

var met pkgMetrics

// SetMetrics binds the package's process-wide counters to the registry (nil
// unbinds). Call during startup wiring, before searches run.
func SetMetrics(r *obs.Registry) {
	if r == nil {
		met = pkgMetrics{}
		return
	}
	met = pkgMetrics{
		runs: r.Counter("emp_tabu_runs_total{impl=\"kernel\"}",
			"Tabu Improve invocations by searcher implementation."),
		moves: r.Counter("emp_tabu_moves_total",
			"Accepted local-search moves (including later-reverted and replayed ones)."),
		replayedMoves: r.Counter("emp_tabu_replayed_moves_total",
			"Local-search moves that repeated a proven cycle and were accounted for without being executed."),
		improvements: r.Counter("emp_tabu_improvements_total",
			"New-best events during local search."),
		candidateEvals: r.Counter("emp_tabu_candidate_evals_total",
			"Objective delta evaluations of candidate moves."),
		heapPushes: r.Counter("emp_tabu_heap_pushes_total",
			"Candidate-heap pushes, including pick-loop re-pushes."),
		heapPops: r.Counter("emp_tabu_heap_pops_total",
			"Candidate-heap pops and removals."),
		tabuRejections: r.Counter("emp_tabu_rejections_total",
			"Candidates skipped as tabu without aspiration."),
		removability: r.Counter("emp_tabu_removability_passes_total",
			"Donor-side contiguity computations (articulation passes)."),
		span: r.Histogram("emp_tabu_improve_duration",
			"Wall time of tabu.Improve runs.", nil),
	}
}

// flushRun records one finished Improve run into the bound registry and
// folds the partition's region-level counters along with it.
func flushRun(st *Stats, p *region.Partition) {
	m := met
	m.runs.Inc()
	m.moves.Add(int64(st.Moves))
	m.replayedMoves.Add(int64(st.ReplayedMoves))
	m.improvements.Add(int64(st.Improvements))
	m.candidateEvals.Add(st.Counters.CandidateEvals)
	m.heapPushes.Add(st.Counters.HeapPushes)
	m.heapPops.Add(st.Counters.HeapPops)
	m.tabuRejections.Add(st.Counters.TabuRejections)
	m.removability.Add(st.Counters.RemovabilityPasses)
	p.FlushObs()
}
