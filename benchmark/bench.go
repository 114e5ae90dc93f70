package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// setupRepeats is how many times a run starts empserve and warms it up;
// setup_s is the median, and the last server serves the timed phase.
const setupRepeats = 3

// maxFailures caps the failure messages kept in a report.
const maxFailures = 10

// backend is a running empserve: a child process in a run, an in-process
// handler in the self-test.
type backend interface {
	URL() string
	PeakRSSMiB() (float64, error)
	StateBytes() (int64, error)
	Stop() // also discards the state dir
}

// runConfig holds the settings of one run.
type runConfig struct {
	Seed    int64
	Seconds int
	Trace   bool
	// Start starts a backend, with durable state under stateDir when it is
	// not empty, and returns once it is ready.
	Start   func(ctx context.Context, stateDir string) (backend, error)
	Workdir string
}

// report is the outcome of one run of one workload.
type report struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   int     `json:"seconds"`
	Trace     int     `json:"trace"`
	Env       envInfo `json:"env"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Metrics holds the end-to-end and timed-phase metrics (untraced run) or
	// the per-layer metrics (traced run).
	Metrics map[string]metricValue `json:"metrics"`
	// E2E holds a traced run's end-to-end and timed-phase metrics of its HTTP
	// phase, which runs exactly as in an untraced run.
	E2E map[string]metricValue `json:"e2e,omitempty"`
	// TracingOverhead is the traced minus the untraced value of each
	// end-to-end metric, against the newest untraced result with the same
	// workload, seed and length in the output directory.
	TracingOverhead map[string]float64 `json:"tracing_overhead,omitempty"`
	// Detail holds per-class sample counts and latencies, quality, and the
	// layer times behind the shares.
	Detail   map[string]float64 `json:"detail"`
	SelfS    map[string]float64 `json:"self_s,omitempty"`
	Checks   []reconCheck       `json:"checks,omitempty"`
	Failures []string           `json:"failures,omitempty"`
}

// metricValue is one reported metric.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// reconCheck is one reconciliation check of a traced run.
type reconCheck struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// runOps sends ops in blocks of the given size (0: one block). Within a
// block the given number of closed-loop clients take the next operation as
// soon as their previous one completed; the block's repeats then run one at a
// time on the otherwise idle server, so their latency is the cache-hit path
// itself rather than whatever solve they happened to queue behind (and their
// originals, which come earlier, have completed). wall is the time from the
// first send to the last answer.
func runOps(ctx context.Context, hc *http.Client, base string, jobsAPI bool, ops []op, clients, block int) (results []result, wall float64) {
	results = make([]result, len(ops))
	send := func(i int) {
		if jobsAPI {
			results[i] = runJob(ctx, hc, base, ops[i])
		} else {
			results[i] = syncSolve(ctx, hc, base, ops[i])
		}
	}
	if block < 1 {
		block = len(ops)
	}
	start := time.Now()
	for lo := 0; lo < len(ops); lo += block {
		hi := min(lo+block, len(ops))
		var concurrent, alone []int
		for i := lo; i < hi; i++ {
			if ops[i].RepeatOf >= 0 {
				alone = append(alone, i)
			} else {
				concurrent = append(concurrent, i)
			}
		}
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					if len(concurrent) == 0 {
						mu.Unlock()
						return
					}
					i := concurrent[0]
					concurrent = concurrent[1:]
					mu.Unlock()
					send(i)
				}
			}()
		}
		wg.Wait()
		for _, i := range alone {
			send(i)
		}
	}
	return results, time.Since(start).Seconds()
}

// runWorkload measures one workload: set-up (start empserve and warm it up,
// setupRepeats times), the timed phase against the last server, the
// correctness check, and with cfg.Trace the replay and per-layer metrics.
func runWorkload(ctx context.Context, cfg runConfig, w *workload) (*report, *tracer, error) {
	hc := newHTTPClient(runtime.NumCPU())
	defer hc.CloseIdleConnections()
	var srv backend
	defer func() {
		if srv != nil {
			srv.Stop()
		}
	}()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.Stop()
			srv = nil
		}
		stateDir := ""
		if w.Durable {
			stateDir = filepath.Join(cfg.Workdir, fmt.Sprintf("state-%d", i))
		}
		start := time.Now()
		s, err := cfg.Start(ctx, stateDir)
		if err != nil {
			return nil, nil, err
		}
		srv = s
		warm, _ := runOps(ctx, hc, srv.URL(), w.Jobs, w.Warmup, 1, 0)
		for _, r := range warm {
			if r.Err != nil {
				return nil, nil, fmt.Errorf("warm-up request on %s failed: %w", r.Op.Dataset, r.Err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	before, err := scrapeMetrics(ctx, hc, srv.URL())
	if err != nil {
		return nil, nil, err
	}
	results, wall := runOps(ctx, hc, srv.URL(), w.Jobs, w.Ops, w.Clients, w.Block)
	after, err := scrapeMetrics(ctx, hc, srv.URL())
	if err != nil {
		return nil, nil, err
	}
	rss, err := srv.PeakRSSMiB()
	if err != nil {
		return nil, nil, err
	}
	stateBytes, err := srv.StateBytes()
	if err != nil {
		return nil, nil, err
	}
	srv.Stop()
	srv = nil
	delta := func(name string) float64 { return after[name] - before[name] }

	checks := checkResults(results, runtime.NumCPU())
	rep := &report{
		Workload:  w.Name,
		Seed:      cfg.Seed,
		Seconds:   cfg.Seconds,
		Env:       currentEnv(),
		Attempted: len(results),
		Detail:    make(map[string]float64),
	}
	for i, c := range checks {
		if c.Err == nil {
			continue
		}
		rep.Failed++
		if len(rep.Failures) < maxFailures {
			rep.Failures = append(rep.Failures, fmt.Sprintf("op %d (%s on %s): %v", i, results[i].Op.Class, results[i].Op.Dataset, c.Err))
		}
	}
	timed := timedValues(w, results, checks, wall, setups, rss)
	fillDetail(rep.Detail, w, results, checks, wall, setups)
	// A metric without samples (every request of a class failed) is NaN. It
	// makes the run incorrect, and is then written as 0, which JSON can carry
	// and -compare never reads from an incorrect run.
	rep.Correct = rep.Failed == 0
	for name, v := range timed {
		rep.Correct = rep.Correct && v == finite(v)
		timed[name] = finite(v)
	}
	e2e := make(map[string]metricValue)
	addMetrics(e2e, endToEnd, timed)
	addMetrics(e2e, timedPhase, timed)
	if !cfg.Trace {
		rep.Metrics = e2e
		return rep, nil, nil
	}

	rep.Trace = 1
	rep.E2E = e2e
	tr := &tracer{t0: time.Now()}
	reps, err := replay(ctx, tr, w, okResults(results, checks))
	if err != nil {
		return nil, nil, err
	}
	layers, recon := layerMetrics(results, checks, reps, tr, delta, stateBytes, rep.Detail)
	for _, m := range timedPhase {
		layers[m.Name] = timed[m.Name]
	}
	rep.Metrics = make(map[string]metricValue, len(perLayer))
	addMetrics(rep.Metrics, perLayer, layers)
	rep.SelfS = tr.selfTimes()
	rep.Checks = recon
	for _, c := range recon {
		rep.Correct = rep.Correct && c.OK
	}
	return rep, tr, nil
}

// okResults returns the results that passed the correctness check.
func okResults(results []result, checks []checked) []result {
	var out []result
	for i, r := range results {
		if checks[i].Err == nil {
			out = append(out, r)
		}
	}
	return out
}

// latencies returns the latencies in seconds of the correct results of one
// class.
func latencies(results []result, checks []checked, class string) []float64 {
	var out []float64
	for i, r := range results {
		if r.Op.Class == class && checks[i].Err == nil {
			out = append(out, r.Latency.Seconds())
		}
	}
	return out
}

// timedValues computes the metrics of the timed phase: the end-to-end ones
// and the ones in timedPhase.
func timedValues(w *workload, results []result, checks []checked, wall float64, setups []float64, rss float64) map[string]float64 {
	pMean, hMean := anchorQuality(results, checks)
	return map[string]float64{
		"solve_p50_s":   median(latencies(results, checks, w.SolveClass)),
		"variant_p50_s": median(latencies(results, checks, w.VariantClass)),
		"ops_per_s":     ratio(float64(len(results)-countFailed(checks)), wall),
		"p_mean":        pMean,
		"h_mean":        hMean,
		"setup_s":       median(setups),
		"peak_rss_mb":   rss,
	}
}

// addMetrics adds the value of every spec to metrics; a missing or
// non-finite value is written as 0.
func addMetrics(metrics map[string]metricValue, specs []metricSpec, values map[string]float64) {
	for _, m := range specs {
		metrics[m.Name] = metricValue{Value: finite(values[m.Name]), Unit: m.Unit, Better: m.Better, Bound: m.Bound}
	}
}

// fillDetail records what the end-to-end metrics summarize: per-class sample
// counts and latency quantiles, the set-up samples and the wall time, plus
// failures and the quality of every cache-missing answer.
func fillDetail(d map[string]float64, w *workload, results []result, checks []checked, wall float64, setups []float64) {
	classes := make(map[string]bool)
	for _, r := range results {
		classes[r.Op.Class] = true
	}
	for class := range classes {
		lat := latencies(results, checks, class)
		d[class+"_count"] = float64(len(lat))
		d[class+"_p50_s"] = finite(median(lat))
		d[class+"_p95_s"] = finite(percentile(lat, 95))
		if w.Jobs {
			var submit, first []float64
			for i, r := range results {
				if r.Op.Class == class && checks[i].Err == nil {
					submit = append(submit, r.Submit.Seconds())
					first = append(first, r.FirstIncumbent.Seconds())
				}
			}
			d[class+"_submit_p50_s"] = finite(median(submit))
			d[class+"_first_incumbent_p50_s"] = finite(median(first))
		}
	}
	for i, s := range setups {
		d[fmt.Sprintf("setup_%d_s", i)] = s
	}
	d["wall_s"] = wall
	d["failed_ratio"] = ratio(float64(countFailed(checks)), float64(len(checks)))
	d["quality.p_mean"], d["quality.h_mean"], d["quality.p_bound_ratio"] = quality(results, checks)
}

func countFailed(checks []checked) int {
	n := 0
	for _, c := range checks {
		if c.Err != nil {
			n++
		}
	}
	return n
}

// quality summarizes the partitions of every correct cache-missing result:
// mean p, mean H, and p summed over the summed SUM-implied upper bounds.
func quality(results []result, checks []checked) (pMean, hMean, pBoundRatio float64) {
	var ps, hs []float64
	var bound float64
	for i, r := range results {
		if checks[i].Err != nil || r.Op.Class == classHit {
			continue
		}
		ps = append(ps, float64(r.Resp.P))
		hs = append(hs, r.Resp.HeteroAfter)
		bound += checks[i].PBound
	}
	var pSum float64
	for _, p := range ps {
		pSum += p
	}
	return mean(ps), mean(hs), ratio(pSum, bound)
}

// anchorQuality is the mean p and mean H of the cache-missing anchor
// requests, NaN unless every one of them passed the correctness check.
func anchorQuality(results []result, checks []checked) (pMean, hMean float64) {
	var ps, hs []float64
	for i, r := range results {
		if !r.Op.Anchor || r.Op.Class == classHit {
			continue
		}
		if checks[i].Err != nil {
			return math.NaN(), math.NaN()
		}
		ps = append(ps, float64(r.Resp.P))
		hs = append(hs, r.Resp.HeteroAfter)
	}
	if len(ps) == 0 {
		return math.NaN(), math.NaN()
	}
	return mean(ps), mean(hs)
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
