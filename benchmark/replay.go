package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/fact"
	"emp/internal/prep"
	"emp/internal/server"
)

// replaySolveTimeout mirrors the server's default per-solve deadline, which
// shapes the solver's budget split even when it never expires.
const replaySolveTimeout = server.DefaultMaxSolveTimeout

// replaySolveRuns is how many times the replay runs each solve; the fastest
// run counts. A single run on a shared 2-vCPU machine jitters by about 12%,
// as much as the server's whole overhead on a 50k1 solve, so one run cannot
// tell whether the layers account for the request.
const replaySolveRuns = 2

// span is one interval of the replay: a layer's work for one request. Spans
// of one request share Req (the operation index; -1 for set-up work). Spans
// laid out from the durations a fact.Result reports, rather than clocked by
// the benchmark, are marked Derived; on sharded solves those durations are
// busy time summed over sub-solves and can exceed their parent.
type span struct {
	Req     int     `json:"req"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a root
	Layer   string  `json:"layer"`
	Class   string  `json:"class,omitempty"`
	Start   float64 `json:"start_s"` // seconds since the replay began
	End     float64 `json:"end_s"`
	Derived bool    `json:"derived,omitempty"`
}

// tracer keeps the replay's spans in memory until they are written out.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// begin opens a clocked span and returns its id.
func (t *tracer) begin(req, parent int, layer, class string) int {
	t.spans = append(t.spans, span{Req: req, ID: len(t.spans) + 1, Parent: parent, Layer: layer, Class: class, Start: t.now()})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id-1]
	s.End = t.now()
	return s.End - s.Start
}

// add records a span timed elsewhere and returns its id.
func (t *tracer) add(req, parent int, layer string, start, end float64, derived bool) int {
	t.spans = append(t.spans, span{Req: req, ID: len(t.spans) + 1, Parent: parent, Layer: layer,
		Start: start, End: end, Derived: derived})
	return len(t.spans)
}

// selfTimes sums each layer's self time: a span's duration minus the part of
// it its children cover (children are laid end to end, so their covered part
// is their summed duration, capped at the parent's).
func (t *tracer) selfTimes() map[string]float64 {
	childSum := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		d := s.End - s.Start
		self[s.Layer] += d - math.Min(childSum[s.ID], d)
	}
	return self
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayed is the layer breakdown of one cache-missing request, replayed in
// the benchmark process through the packages the server calls.
type replayed struct {
	Result result

	Decode, Census, Prep, CutPlan, Solve, Encode float64 // seconds

	// From the returned fact.Result.
	Feasibility, Construction, LocalSearch, SeamRepair float64 // seconds
	Iterations, Moves, Improvements, SeamMoves         int
	CandidateEvals                                     int64
	Areas, Unassigned, Components                      int
	P                                                  int
	H                                                  float64

	ResponseBytes int
}

// layerSum is the replayed work on the request's path: for a sync solve
// everything up to the encoded response; for a job everything up to the done
// event, which precedes any encoding of the result.
func (r *replayed) layerSum() float64 {
	sum := r.Decode + r.Census + r.Prep + r.CutPlan + r.Solve
	if !r.isJob() {
		sum += r.Encode
	}
	return sum
}

// latency is the request's HTTP latency in seconds.
func (r *replayed) latency() float64 { return r.Result.Latency.Seconds() }

// overhead is the latency less the replayed layers: the time the request
// spent outside them.
func (r *replayed) overhead() float64 { return r.latency() - r.layerSum() }

func (r *replayed) isJob() bool {
	return r.Result.Op.Class == classCold || r.Result.Op.Class == classWarm
}

// wholeGraph reports whether the solve ran on the whole dataset as one
// instance (no cut, one component), where the phase times are wall times.
func (r *replayed) wholeGraph() bool { return r.Result.Op.CutShards == 0 && r.Components == 1 }

// countingWriter counts the bytes written through it.
type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// replay re-runs every cache-missing operation of results (which all passed
// the correctness check), one at a time and in the order they were sent,
// through the same public entry points the server uses: JSON decoding into
// server.SolveRequest, constraint.ParseSet and SolveOptions.Config,
// census.NamedSeeded, prep.New, prep.Artifact.CutPlan (shard.NewCutPlan plus
// per-shard prep), fact.SolveCtx and JSON encoding of the returned
// server.SolveResponse. Datasets are cached like the server's dataset cache:
// generated once per (name, seed), and the ones the server generated during
// set-up are generated before the first request, as set-up work. Warm jobs
// start from fact.WarmAssignment of the replayed cold job on the same
// dataset, as the server's warm start does.
func replay(ctx context.Context, tr *tracer, w *workload, results []result) ([]replayed, error) {
	// Artifacts stay cached for the whole replay, as in the server: besides
	// mirroring its dataset cache, this gives the replaying process a heap
	// like the server's, and with it a similar garbage-collection rate.
	cache := make(map[datasetKey]*prep.Artifact)
	build := func(req, parent int, k datasetKey) (genS, prepS float64, err error) {
		id := tr.begin(req, parent, "census.generate", "")
		ds, err := census.NamedSeeded(k.name, k.seed)
		genS = tr.end(id)
		if err != nil {
			return 0, 0, err
		}
		id = tr.begin(req, parent, "prep.build", "")
		art, err := prep.New(ds)
		prepS = tr.end(id)
		if err != nil {
			return 0, 0, err
		}
		cache[k] = art
		return genS, prepS, nil
	}
	// The server built the warm-up datasets before the timed phase.
	setup := tr.begin(-1, 0, "setup", "")
	for _, o := range w.Warmup {
		if k := o.datasetKey(); cache[k] == nil {
			if _, _, err := build(-1, setup, k); err != nil {
				return nil, err
			}
		}
	}
	tr.end(setup)

	warmSeeds := make(map[datasetKey][]int)
	var out []replayed
	for _, r := range results {
		if r.Op.Class == classHit {
			continue
		}
		o := r.Op
		rp := replayed{Result: r}
		root := tr.begin(o.Index, 0, "request", o.Class)

		id := tr.begin(o.Index, root, "server.decode", "")
		var req server.SolveRequest
		if err := json.Unmarshal(o.Body, &req); err != nil {
			return nil, err
		}
		set, err := constraint.ParseSet(req.Constraints)
		if err != nil {
			return nil, err
		}
		cfg, err := req.Options.Config()
		if err != nil {
			return nil, err
		}
		rp.Decode = tr.end(id)

		k := o.datasetKey()
		if cache[k] == nil {
			if rp.Census, rp.Prep, err = build(o.Index, root, k); err != nil {
				return nil, err
			}
		}
		art := cache[k]
		if o.CutShards > 0 {
			id = tr.begin(o.Index, root, "shard.cut_plan", "")
			if _, _, err := art.CutPlan(o.CutShards); err != nil {
				return nil, err
			}
			rp.CutPlan = tr.end(id)
		}
		cfg.Prepared = art
		if o.Class == classWarm {
			cfg.WarmStart = warmSeeds[k]
		}

		var res *fact.Result
		var start float64
		var runs [][2]float64 // start, end
		for run := 0; run < replaySolveRuns; run++ {
			solveCtx, cancel := context.WithTimeout(ctx, replaySolveTimeout)
			t0 := tr.now()
			r, err := fact.SolveCtx(solveCtx, art.Dataset(), set, cfg)
			t1 := tr.now()
			cancel()
			if err != nil {
				return nil, fmt.Errorf("replaying request %d: %w", o.Index, err)
			}
			runs = append(runs, [2]float64{t0, t1})
			if res == nil || t1-t0 < rp.Solve {
				res, start, rp.Solve = r, t0, t1-t0
			}
		}
		// The slower runs stay visible as their own layer, so they do not
		// count as the request's self time.
		for _, run := range runs {
			if run[0] != start {
				tr.add(o.Index, root, "replay.slower_run", run[0], run[1], false)
			}
		}
		id = tr.add(o.Index, root, "fact.solve", start, start+rp.Solve, false)
		rp.Feasibility = res.FeasibilityTime.Seconds()
		rp.Construction = res.ConstructionTime.Seconds()
		rp.LocalSearch = res.LocalSearchTime.Seconds()
		rp.SeamRepair = res.SeamRepairTime.Seconds()
		rp.Iterations, rp.Moves, rp.Improvements, rp.SeamMoves = res.Iterations, res.TabuMoves, res.Improvements, res.SeamMoves
		rp.CandidateEvals = res.Search.CandidateEvals
		rp.Areas, rp.Unassigned, rp.Components = art.Dataset().N(), res.Unassigned, art.Dataset().Components()
		rp.P, rp.H = res.P, res.HeteroAfter
		for _, d := range []struct {
			layer string
			dur   float64
		}{
			{"fact.feasibility", rp.Feasibility},
			{"fact.construction", rp.Construction},
			{"tabu.search", rp.LocalSearch - rp.SeamRepair},
			{"fact.seam_repair", rp.SeamRepair},
		} {
			if d.dur > 0 {
				tr.add(o.Index, id, d.layer, start, start+d.dur, true)
				start += d.dur
			}
		}
		if o.Class == classCold {
			warmSeeds[k] = fact.WarmAssignment(res.Partition)
		}

		id = tr.begin(o.Index, root, "server.encode", "")
		var cw countingWriter
		if err := json.NewEncoder(&cw).Encode(r.Resp); err != nil {
			return nil, err
		}
		rp.Encode = tr.end(id)
		rp.ResponseBytes = cw.n
		tr.end(root)

		out = append(out, rp)
	}
	return out, nil
}
