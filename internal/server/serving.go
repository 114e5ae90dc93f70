package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/fact"
	"emp/internal/fault"
	"emp/internal/flight"
	"emp/internal/obs"
	"emp/internal/prep"
	"emp/internal/solvecache"
)

// statusClientClosed is nginx's conventional 499 "client closed request":
// the solve was abandoned because no interested client remained. The
// connection is usually gone by the time it is written; the status exists
// for the access log and the per-route metrics.
const statusClientClosed = 499

// solveOutcome is the singleflight-shared result of one solve execution.
// Every caller of the flight (leader and deduped followers) receives the
// same outcome, including error outcomes — if the shared solve was rejected
// or infeasible, it was so for all of them.
type solveOutcome struct {
	resp    *SolveResponse // nil on error outcomes
	status  int
	errMsg  string
	reasons []string
	// retryAfter marks overload outcomes that should carry a Retry-After
	// header (429).
	retryAfter bool
}

// clampTimeoutMillis folds a request's timeout_ms onto the effective solve
// deadline: 0 (unset) and anything at or above the server max both mean the
// server max, so all spellings of "as long as you allow" share one
// fingerprint. Negative values are rejected before this runs.
func clampTimeoutMillis(ms int64, max time.Duration) int64 {
	maxMs := max.Milliseconds()
	if ms <= 0 || ms > maxMs {
		return maxMs
	}
	return ms
}

// normalizeSeed maps the "unset" seed 0 to the canonical seed 1 exactly
// once, at the request boundary. Dataset generation, the solver config and
// the cache keys all use the normalized value, so a request with seed 0 and
// a request with seed 1 are one cache entry and produce identical responses
// (previously the dataset was generated with seed 1 but the solver ran with
// the raw 0).
func normalizeSeed(seed int64) int64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// solveFingerprint computes the canonical cache/dedup key of a solve
// request: the normalized dataset source, the parsed-and-reprinted
// constraint set (so whitespace and formatting variants share an entry),
// every solver option that can influence the result (the option subset is
// owned by SolveOptions.fingerprintParts, next to the wire struct, so new
// knobs cannot miss the fingerprint), and the clamped timeout_ms — the
// deadline shapes the result (degraded vs converged), and singleflight
// followers share the leader's deadline, so requests with different budgets
// must not collapse into one flight. The caller must have normalized
// Options.Seed and TimeoutMillis already.
func solveFingerprint(req *SolveRequest, set constraint.Set) string {
	opt := &req.Options
	var src [3]string
	if req.Named != "" {
		src = [3]string{"named:" + req.Named,
			strconv.FormatFloat(req.Scale, 'g', -1, 64),
			strconv.FormatInt(opt.Seed, 10)}
	} else {
		src = [3]string{"inline", string(req.Dataset), ""}
	}
	parts := append([]string{src[0], src[1], src[2], set.String(),
		strconv.FormatInt(req.TimeoutMillis, 10)}, opt.fingerprintParts()...)
	return solvecache.Key(parts...)
}

// datasetKey keys the dataset artifact cache by everything generation
// depends on: name, scale and (normalized) seed.
func datasetKey(name string, scale float64, seed int64) string {
	return solvecache.Key("dataset", name,
		strconv.FormatFloat(scale, 'g', -1, 64),
		strconv.FormatInt(seed, 10))
}

// responseCost approximates the resident bytes of a cached SolveResponse;
// the assignment slice dominates.
func responseCost(resp *SolveResponse) int64 {
	cost := int64(512) + int64(len(resp.Assignment))*8
	for _, w := range resp.Warnings {
		cost += int64(len(w)) + 16
	}
	return cost
}

// datasetFor resolves the request's dataset as a prepared artifact. Named
// (and scaled) synthetic datasets go through the artifact LRU — generating a
// 20k-area substrate and preparing its solver structures (dissimilarity
// matrix, rank kernel, CSR graph) costs far more than solving on it hot —
// and concurrent misses on the same key are collapsed by a singleflight so
// the substrate is built and prepared once. Cached artifacts are shared
// READ-ONLY-or-internally-synchronized across concurrent solves (see
// prep.Artifact), which the race-enabled serving tests exercise.
func (s *service) datasetFor(ctx context.Context, req *SolveRequest) (*prep.Artifact, error) {
	if req.Dataset != nil {
		// Inline documents are request-local: parse and prepare, don't cache.
		ds, err := data.ReadJSON(bytes.NewReader(req.Dataset))
		if err != nil {
			return nil, err
		}
		return prepArtifact(ds)
	}
	seed := req.Options.Seed // normalized by handleSolve
	key := datasetKey(req.Named, req.Scale, seed)
	if v, ok := s.dsCache.Get(key); ok {
		return v.(*prep.Artifact), nil
	}
	v, _, err := s.dsFlights.Do(ctx, key, func(context.Context) (any, error) {
		// Generation is pure CPU without cancellation support, and its
		// output is cacheable — run it to completion even when the
		// requesting clients leave; the next request hits the cache.
		// Transient generation failures (the census.generate fault site)
		// are retried with backoff before the flight reports an error.
		var ds *data.Dataset
		err := fault.Retry(ctx, fault.RetryPolicy{Seed: seed}, func() error {
			var err error
			if req.Scale > 0 {
				ds, err = census.Scaled(req.Named, req.Scale, seed)
			} else {
				ds, err = census.NamedSeeded(req.Named, seed)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		art, err := prepArtifact(ds)
		if err != nil {
			return nil, err
		}
		s.dsCache.Add(key, art, art.Cost())
		return art, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*prep.Artifact), nil
}

// prepArtifact prepares a resolved dataset. Datasets without a
// dissimilarity configuration cannot be prepared or solved; surface the
// prep error as the request error it would have become inside the solve.
func prepArtifact(ds *data.Dataset) (*prep.Artifact, error) {
	art, err := prep.New(ds)
	if err != nil {
		return nil, fmt.Errorf("preparing dataset: %w", err)
	}
	return art, nil
}

// runSolve executes one admitted solve: scheduler slot, dataset resolution,
// the cancellable solve itself, and the result-cache store. It runs as a
// singleflight leader; ctx is the flight context, cancelled only when every
// interested client has disconnected.
func (s *service) runSolve(ctx context.Context, req *SolveRequest, set constraint.Set, cfg fact.Config, fp string) *solveOutcome {
	// Register the flight recorder before queueing so /v1/debug/solves shows
	// the solve (phase "queued") the moment it is admitted to the flight, and
	// thread it through the context so the solver phases feed it samples.
	dsLabel := req.Named
	if dsLabel == "" {
		dsLabel = "inline"
	}
	trace := obs.SpanContextFrom(ctx).Trace
	rec := flight.NewRecorder()
	s.fstore.Begin(trace, dsLabel, rec)
	defer s.fstore.Finish(trace, rec)
	ctx = flight.NewContext(ctx, rec)
	release, err := s.sched.Acquire(ctx)
	if err != nil {
		if errors.Is(err, solvecache.ErrOverloaded) {
			return &solveOutcome{
				status: http.StatusTooManyRequests,
				errMsg: fmt.Sprintf("overloaded: no solve capacity within the queue budget (workers=%d); retry later",
					s.sched.Workers()),
				retryAfter: true,
			}
		}
		s.cancels.Inc() // every client left while queued
		return &solveOutcome{status: statusClientClosed, errMsg: "solve canceled: client closed request"}
	}
	defer release()
	oc := s.executeSolve(ctx, req, set, cfg)
	if oc.resp != nil {
		s.resCache.Add(fp, oc.resp, responseCost(oc.resp))
	}
	return oc
}

// executeSolve runs the solve proper once a worker slot is held: dataset
// resolution, the deadline, the cancellable solve itself and the mapping of
// solver errors onto HTTP outcomes. It deliberately does NOT touch the
// result cache — the sync path caches in runSolve under the request
// fingerprint, while the async job path (which may inject a WarmStart and so
// produce a trajectory-dependent result) picks the answer's key itself.
func (s *service) executeSolve(ctx context.Context, req *SolveRequest, set constraint.Set, cfg fact.Config) *solveOutcome {
	art, err := s.datasetFor(ctx, req)
	if err != nil {
		return &solveOutcome{status: http.StatusBadRequest, errMsg: err.Error()}
	}
	ds := art.Dataset()
	// Prepared is in-process state derived from the dataset, not a request
	// knob: it never participates in the solve fingerprint (results are
	// identical with or without it, pinned by a differential test).
	cfg.Prepared = art
	// The deadline starts after the queue wait and dataset resolution: it
	// budgets the solve itself. TimeoutMillis is always positive here (the
	// handler clamps 0 to the server max).
	solveCtx, cancel := context.WithTimeout(ctx, time.Duration(req.TimeoutMillis)*time.Millisecond)
	defer cancel()
	res, err := fact.SolveCtx(solveCtx, ds, set, cfg)
	if err != nil {
		switch {
		case errors.Is(err, fact.ErrInfeasible):
			return &solveOutcome{status: http.StatusUnprocessableEntity,
				errMsg: "infeasible", reasons: res.Feasibility.Reasons}
		case ctx.Err() != nil:
			s.cancels.Inc() // every client left mid-solve
			return &solveOutcome{status: statusClientClosed, errMsg: "solve canceled: client closed request"}
		case errors.Is(err, context.DeadlineExceeded):
			// The budget expired before construction produced anything to
			// degrade to; deadlines hit later return a degraded 200 instead.
			return &solveOutcome{status: http.StatusGatewayTimeout,
				errMsg: fmt.Sprintf("solve exceeded its %dms budget before producing a partition", req.TimeoutMillis)}
		default:
			return &solveOutcome{status: http.StatusBadRequest, errMsg: err.Error()}
		}
	}
	resp := buildResponse(res)
	return &solveOutcome{status: http.StatusOK, resp: &resp}
}

// writeSolveResponse sends a (possibly cached, shared) response, stamping
// the caller's request id onto a shallow copy so the cached entry itself is
// never mutated.
func (s *service) writeSolveResponse(w http.ResponseWriter, r *http.Request, resp *SolveResponse) {
	out := *resp
	out.RequestID = RequestIDFrom(r.Context())
	writeJSON(w, http.StatusOK, &out)
}
