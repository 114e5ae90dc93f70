// Package server exposes EMP regionalization as a small JSON-over-HTTP
// service: POST a dataset (inline or by synthetic name) plus a constraint
// query, get back the regions, the feasibility report, solver timings and
// the solver's hot-path telemetry. The handler also serves the process
// metrics registry as Prometheus text on GET /v1/metrics, tags every request
// with an X-Request-ID, and can write an access log. Useful for hosting the
// solver behind data-analysis frontends.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/durable"
	"emp/internal/fact"
	"emp/internal/flight"
	"emp/internal/jobs"
	"emp/internal/obs"
	"emp/internal/obswire"
	"emp/internal/solvecache"
)

// Config tunes the HTTP service.
type Config struct {
	// Registry receives the HTTP metrics and backs GET /v1/metrics; nil means
	// obs.Default(). NewHandler enables it — serving implies measuring.
	// Solver-internal metrics land in the same registry only when the
	// caller also wires the solver packages (see internal/obswire), which
	// cmd/empserve does.
	Registry *obs.Registry
	// AccessLog receives one line per request; nil disables access logging.
	AccessLog io.Writer
	// MaxBodyBytes bounds POST /v1/solve and /v1/jobs request bodies; 0
	// means 64 MiB.
	MaxBodyBytes int64
	// DatasetCacheBytes bounds the LRU of generated named/scaled datasets
	// shared read-only across requests; 0 or negative means
	// DefaultDatasetCacheBytes.
	DatasetCacheBytes int64
	// ResultCacheBytes bounds the result store, the LRU that alone holds
	// every finished solve response: sync answers and cold job answers under
	// their request fingerprint, warm-started and resumed job answers under
	// their job's id. Job records name their answers there. 0 or negative
	// means DefaultResultCacheBytes; the store cannot be disabled, since a
	// job's answer lives nowhere else.
	ResultCacheBytes int64
	// Workers caps concurrently executing solves; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds how many admitted solves may wait for a worker
	// beyond the ones executing; 0 means 4x Workers, negative means no
	// queue (reject the moment all workers are busy).
	QueueDepth int
	// QueueWait bounds how long a queued solve may wait for a worker before
	// the service sheds it with 429; 0 means DefaultQueueWait.
	QueueWait time.Duration
	// MaxSolveTimeout caps how long any one solve may run. A request's
	// timeout_ms is clamped to it, and requests that do not ask for a
	// timeout run under it as the default deadline. 0 means
	// DefaultMaxSolveTimeout.
	MaxSolveTimeout time.Duration
	// FlightRecorderBytes budgets the flight-recorder store retaining the
	// span trees and convergence curves of recent solves for /v1/debug/*;
	// 0 means DefaultFlightRecorderBytes.
	FlightRecorderBytes int64
	// FlightRecorderTraces caps how many finished solves the store retains;
	// 0 means DefaultFlightRecorderTraces.
	FlightRecorderTraces int
	// JobTTL is how long a finished async job (POST /v1/jobs) stays
	// fetchable; 0 means jobs.DefaultTTL.
	JobTTL time.Duration
	// MaxActiveJobs bounds queued+running async jobs (submits past it get
	// 429); 0 means jobs.DefaultMaxActive.
	MaxActiveJobs int
	// StateDir enables the durable layer: a crash-safe job journal, periodic
	// incumbent checkpoints for running jobs, and result-cache/warm-seed
	// snapshots, all under this directory and recovered on the next boot
	// (see docs/ROBUSTNESS.md "Durability & crash recovery"). Empty disables
	// persistence entirely — the pre-durability in-memory behavior.
	StateDir string
	// SnapshotInterval paces best-effort periodic cache snapshots (a final
	// snapshot is always written on Close); 0 means DefaultSnapshotInterval,
	// negative disables periodic snapshots. Ignored without StateDir.
	SnapshotInterval time.Duration
	// CheckpointInterval is the minimum time between incumbent checkpoint
	// writes per running job; 0 means DefaultCheckpointInterval. Ignored
	// without StateDir.
	CheckpointInterval time.Duration
}

// DefaultMaxBodyBytes is the POST /v1/solve body limit when
// Config.MaxBodyBytes is zero: large enough for a full inline 50k-area
// dataset document, small enough to keep one request from exhausting memory.
const DefaultMaxBodyBytes = 64 << 20

// Serving-layer defaults (see docs/SERVING.md for sizing rationale).
const (
	// DefaultDatasetCacheBytes holds roughly a dozen 20k-area substrates.
	DefaultDatasetCacheBytes = 256 << 20
	// DefaultResultCacheBytes holds every finished answer, sync and async:
	// over 300 50k-area assignments, thousands of smaller ones.
	DefaultResultCacheBytes = 128 << 20
	// DefaultQueueWait bounds queue time before shedding with 429.
	DefaultQueueWait = 10 * time.Second
	// DefaultMaxSolveTimeout is the per-solve deadline ceiling: generous
	// enough for a cold 50k-area sharded solve, small enough that a wedged
	// solve cannot hold a worker slot forever.
	DefaultMaxSolveTimeout = 5 * time.Minute
	// DefaultFlightRecorderBytes budgets the flight-recorder store: dozens
	// of retained solves at a few tens of KB each.
	DefaultFlightRecorderBytes = 8 << 20
	// DefaultFlightRecorderTraces caps retained finished solves.
	DefaultFlightRecorderTraces = 64
	// DefaultSnapshotInterval paces periodic cache snapshots: frequent
	// enough that a crash loses at most a minute of cached results, rare
	// enough that the serialize-and-fsync cost is noise.
	DefaultSnapshotInterval = time.Minute
	// DefaultCheckpointInterval throttles per-job incumbent checkpoints.
	// Improvements arrive in bursts at search start; a couple of seconds
	// between writes keeps checkpoint I/O invisible next to solve compute
	// while a killed job loses only seconds of progress.
	DefaultCheckpointInterval = 2 * time.Second
)

// service carries the handler state.
type service struct {
	reg        *obs.Registry
	accessLog  io.Writer
	maxBody    int64
	maxTimeout time.Duration
	inflight   *obs.Gauge

	// draining flips the readiness probe to 503 the moment shutdown begins,
	// so load balancers stop routing new work while in-flight requests (and
	// the liveness probe) keep succeeding.
	draining atomic.Bool

	// Serving-performance subsystem: artifact and result caches, the solve
	// dedup group, the dataset-generation dedup group and the bounded
	// scheduler (see internal/solvecache).
	dsCache   *solvecache.LRU
	resCache  *solvecache.LRU
	flights   solvecache.Group
	dsFlights solvecache.Group
	sched     *solvecache.Scheduler
	pool      *solvecache.Pool
	dedups    *obs.Counter
	cancels   *obs.Counter

	// fstore retains flight recorders and span events of recent solves for
	// the /v1/debug/ introspection endpoints. It receives events as one arm
	// of the registry's sink fan-out.
	fstore *flight.Store

	// Async job subsystem (POST /v1/jobs): the bounded job store plus the
	// wait group that lets shutdown drain in-flight jobs (see DrainJobs).
	jobs   *jobs.Store
	jobsWG sync.WaitGroup

	// emp_jobs_* metrics.
	jobsSubmitted *obs.Counter
	jobsDeduped   *obs.Counter
	jobsWarm      *obs.Counter
	jobsDone      *obs.Counter
	jobsFailed    *obs.Counter
	jobsCanceled  *obs.Counter
	jobsActive    *obs.Gauge
	jobEventsSent *obs.Counter
	jobWatchers   *obs.Gauge

	// Durable state subsystem (Config.StateDir): nil journal means
	// persistence is disabled and every hook below is a no-op.
	stateDir     string
	journal      *durable.Journal
	durMet       durable.Metrics
	ckptInterval time.Duration
	snapInterval time.Duration
	recovering   atomic.Bool   // /v1/readyz answers 503 "recovering" while set
	stopSnap     chan struct{} // stops the periodic snapshot goroutine
	closeOnce    sync.Once
}

// SolveRequest is the POST /v1/solve body.
type SolveRequest struct {
	// Dataset embeds a full dataset document (same schema as the JSON
	// files written by the library). Mutually exclusive with Named.
	Dataset json.RawMessage `json:"dataset,omitempty"`
	// Named selects a synthetic dataset ("1k".."50k").
	Named string `json:"named,omitempty"`
	// Scale shrinks a named dataset (0 < scale <= 1; 0 = 1).
	Scale float64 `json:"scale,omitempty"`
	// Constraints is the SQL-ish constraint list, semicolon separated.
	Constraints string `json:"constraints"`
	// TimeoutMillis bounds the solve's wall time in milliseconds. It is
	// clamped to the server's MaxSolveTimeout; 0 means "the server max". A
	// solve that hits the deadline after construction returns a degraded
	// (best-so-far) response instead of an error; one that cannot even
	// construct an incumbent in time fails with 504.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// Options tunes the solver.
	Options SolveOptions `json:"options"`
}

// SolverStats folds the solver's per-request telemetry into the response:
// the phase-1 wall time and the local-search hot-path counters (see
// docs/OBSERVABILITY.md for their definitions).
type SolverStats struct {
	FeasibilityMillis  float64 `json:"feasibility_ms"`
	Iterations         int     `json:"iterations"`
	Improvements       int     `json:"improvements"`
	CandidateEvals     int64   `json:"candidate_evals"`
	HeapPushes         int64   `json:"heap_pushes"`
	HeapPops           int64   `json:"heap_pops"`
	TabuRejections     int64   `json:"tabu_rejections"`
	RemovabilityPasses int64   `json:"removability_passes"`
}

// SolveResponse is the POST /v1/solve result.
type SolveResponse struct {
	RequestID          string   `json:"request_id,omitempty"`
	P                  int      `json:"p"`
	Unassigned         int      `json:"unassigned"`
	HeteroBefore       float64  `json:"hetero_before"`
	HeteroAfter        float64  `json:"hetero_after"`
	HeteroImprovement  float64  `json:"hetero_improvement"`
	Assignment         []int    `json:"assignment"`
	ConstructionMillis float64  `json:"construction_ms"`
	LocalSearchMillis  float64  `json:"local_search_ms"`
	TabuMoves          int      `json:"tabu_moves"`
	InvalidAreas       int      `json:"invalid_areas"`
	SeedAreas          int      `json:"seed_areas"`
	Warnings           []string `json:"warnings,omitempty"`
	// Degraded marks a best-effort answer: the solve hit its deadline after
	// construction or lost shards to faults; Warnings says why. Absent
	// (false) on fully converged solves, so pre-existing responses are
	// byte-identical.
	Degraded bool        `json:"degraded,omitempty"`
	Solver   SolverStats `json:"solver_stats"`
}

// errorEnvelope is the single JSON error shape of the API: every error
// path, on every route and version, responds `{"error":{"code","message"}}`
// (plus optional reasons and the request id). Clients switch on the stable
// machine-readable code; the message is for humans.
type errorEnvelope struct {
	Error errorDetail `json:"error"`
}

// errorDetail is the envelope payload; the request id lets clients quote a
// failing call when reporting it against the access log.
type errorDetail struct {
	Code      string   `json:"code"`
	Message   string   `json:"message"`
	Reasons   []string `json:"reasons,omitempty"`
	RequestID string   `json:"request_id,omitempty"`
}

// errorCode maps a status onto the envelope's stable code vocabulary.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusUnprocessableEntity:
		return "infeasible"
	case http.StatusTooManyRequests:
		return "overloaded"
	case http.StatusGatewayTimeout:
		return "deadline_exceeded"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case statusClientClosed:
		return "client_closed"
	case http.StatusNotFound:
		return "not_found"
	default:
		if status >= 500 {
			return "internal"
		}
		return "error"
	}
}

// Service is a constructed server: the HTTP handler plus the runtime
// controls the serving binary drives around it (readiness draining).
type Service struct {
	s       *service
	handler http.Handler
}

// Handler returns the service's HTTP handler.
func (sv *Service) Handler() http.Handler { return sv.handler }

// SetDraining flips the /v1/readyz readiness probe: draining instances
// answer 503 so load balancers stop routing new work, while /v1/healthz
// liveness and in-flight requests keep succeeding. Call with true when
// shutdown begins, before http.Server.Shutdown.
func (sv *Service) SetDraining(d bool) { sv.s.draining.Store(d) }

// Draining reports whether the service is refusing readiness.
func (sv *Service) Draining() bool { return sv.s.draining.Load() }

// InflightJobs returns the number of async jobs still queued or running.
// Shutdown sequencing reads it: a draining instance should keep serving
// until its jobs finish (or the drain budget expires).
func (sv *Service) InflightJobs() int { return sv.s.jobs.Active() }

// DrainJobs blocks until every in-flight async job has finished (its runner
// goroutine returned) or the context expires; it reports whether the drain
// completed. Call after SetDraining(true) — draining refuses new submits, so
// the wait is monotone.
func (sv *Service) DrainJobs(ctx context.Context) bool {
	done := make(chan struct{})
	go func() {
		sv.s.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-ctx.Done():
		return false
	}
}

// Recovering reports whether boot recovery is still loading durable state.
func (sv *Service) Recovering() bool { return sv.s.recovering.Load() }

// Close flushes and releases the service's durable state: a final cache
// snapshot (the on-drain snapshot the recovery contract promises), the job
// journal, and the background snapshot/sweeper goroutines. Call it after
// DrainJobs during shutdown; without a StateDir it only stops goroutines.
// Safe to call more than once.
func (sv *Service) Close() error { return sv.s.closeDurable() }

// NewHandler builds the service's HTTP handler: the API routes wrapped in
// request-id, access-log and metrics middleware. Callers that need the
// runtime controls (readiness draining during shutdown) use New instead.
func NewHandler(cfg Config) http.Handler { return New(cfg).Handler() }

// New builds the service: the handler plus its runtime controls.
func New(cfg Config) *Service {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	reg.SetEnabled(true)
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	dsBytes := cfg.DatasetCacheBytes
	if dsBytes <= 0 {
		dsBytes = DefaultDatasetCacheBytes
	}
	resBytes := cfg.ResultCacheBytes
	if resBytes <= 0 {
		resBytes = DefaultResultCacheBytes
	}
	maxTimeout := cfg.MaxSolveTimeout
	if maxTimeout <= 0 {
		maxTimeout = DefaultMaxSolveTimeout
	}
	s := &service{
		reg:        reg,
		accessLog:  cfg.AccessLog,
		maxBody:    maxBody,
		maxTimeout: maxTimeout,
		inflight:   reg.Gauge("emp_http_in_flight", "HTTP requests currently being served."),
		dsCache:    solvecache.NewLRU(dsBytes),
		resCache:   solvecache.NewLRU(resBytes),
		dedups:     reg.Counter("emp_solve_dedup_total", "Requests that joined an identical in-flight solve instead of running their own."),
		cancels:    reg.Counter("emp_solve_canceled_total", "Solve executions abandoned because every interested client disconnected."),
	}
	s.dsCache.SetMetrics(solvecache.CacheMetrics{
		Hits:      reg.Counter("emp_dataset_cache_hits_total", "Dataset artifact cache hits."),
		Misses:    reg.Counter("emp_dataset_cache_misses_total", "Dataset artifact cache misses."),
		Evictions: reg.Counter("emp_dataset_cache_evictions_total", "Dataset artifact cache evictions."),
		Cost:      reg.Gauge("emp_dataset_cache_bytes", "Approximate bytes held by the dataset artifact cache."),
	})
	s.resCache.SetMetrics(solvecache.CacheMetrics{
		Hits:      reg.Counter("emp_result_cache_hits_total", "Solve result cache hits."),
		Misses:    reg.Counter("emp_result_cache_misses_total", "Solve result cache misses."),
		Evictions: reg.Counter("emp_result_cache_evictions_total", "Solve result cache evictions."),
		Cost:      reg.Gauge("emp_result_cache_bytes", "Approximate bytes held by the solve result cache."),
	})
	s.sched = solvecache.NewScheduler(cfg.Workers, cfg.QueueDepth, cfg.QueueWait, solvecache.SchedulerMetrics{
		Depth:     reg.Gauge("emp_solve_queue_depth", "Solves currently waiting for a worker slot."),
		Wait:      reg.Histogram("emp_solve_queue_wait_duration", "Time solves spend queued for a worker slot.", nil),
		Rejected:  reg.Counter("emp_solve_queue_rejected_total", "Solves shed with 429 because the queue was full or the wait budget elapsed."),
		Abandoned: reg.Counter("emp_solve_queue_abandoned_total", "Queued solves whose context was cancelled before a slot freed."),
	})
	s.pool = solvecache.NewPool(s.sched.Workers())
	s.fstore = flight.NewStore(cfg.FlightRecorderBytes, cfg.FlightRecorderTraces)
	s.jobs = jobs.NewStore(jobs.Config{
		TTL:          cfg.JobTTL,
		MaxActive:    cfg.MaxActiveJobs,
		OnTransition: s.onJobTransition,
	})
	s.jobsSubmitted = reg.Counter("emp_jobs_submitted_total", "Async jobs accepted by POST /v1/jobs (including done-on-arrival cache hits).")
	s.jobsDeduped = reg.Counter("emp_jobs_deduped_total", "Async submits attached to an already-active job with the same fingerprint.")
	s.jobsWarm = reg.Counter("emp_jobs_warmstart_total", "Async jobs whose construction was seeded from a retained prior partition.")
	s.jobsDone = reg.Counter("emp_jobs_done_total", "Async jobs finished successfully.")
	s.jobsFailed = reg.Counter("emp_jobs_failed_total", "Async jobs that ended in failure.")
	s.jobsCanceled = reg.Counter("emp_jobs_canceled_total", "Async jobs canceled by DELETE /v1/jobs/{id}.")
	s.jobsActive = reg.Gauge("emp_jobs_active", "Async jobs currently queued or running.")
	s.jobEventsSent = reg.Counter("emp_jobs_events_streamed_total", "Events written to /v1/jobs/{id}/events watchers (SSE and NDJSON).")
	s.jobWatchers = reg.Gauge("emp_jobs_watchers", "Clients currently streaming /v1/jobs/{id}/events.")
	// The flight store listens on the registry sink alongside whatever sink is
	// already wired (obswire's JSONL stream, a test capture, or none): span
	// events flow to both, so recorded traces match what external consumers
	// see. Fanout drops nil arms, so an unwired registry just gets the store.
	reg.SetSink(obswire.NewFanout(reg.Sink(), s.fstore))
	mux := http.NewServeMux()
	// The whole surface lives under /v1/; bare paths fall through to the
	// catch-all 404. GET /v1/metrics is wrapped in a method guard at this
	// layer so its 405s speak the JSON envelope like every other route (the
	// obs handler's own plain-text 405 is library behavior the server does
	// not re-export).
	mux.Handle("/v1/healthz", s.allowMethods(http.HandlerFunc(s.handleHealth), http.MethodGet, http.MethodHead))
	mux.Handle("/v1/readyz", s.allowMethods(http.HandlerFunc(s.handleReady), http.MethodGet, http.MethodHead))
	mux.HandleFunc("/v1/datasets", s.handleDatasets)
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.Handle("/v1/metrics", s.allowMethods(reg.MetricsHandler(), http.MethodGet, http.MethodHead))
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/debug/solves", s.handleDebugSolves)
	mux.HandleFunc("/v1/debug/trace/", s.handleDebugTrace)
	mux.HandleFunc("/v1/debug/cache", s.handleDebugCache)
	// Catch-all: unknown paths get the JSON envelope, not the mux's
	// plain-text 404 — the envelope is exhaustive across the surface.
	mux.HandleFunc("/", s.handleNotFound)
	// Durable state last: the journal opens (and a torn tail truncates)
	// synchronously, then recovery — snapshot restore and job re-admission —
	// proceeds in the background behind the `recovering` readiness state.
	s.initDurable(cfg)
	// Request-id first so the instrument layer (access log) sees the id.
	return &Service{s: s, handler: withRequestID(s.instrument(mux))}
}

// allowMethods guards a handler to the listed methods, answering everything
// else with the enveloped 405 + Allow header.
func (s *service) allowMethods(next http.Handler, methods ...string) http.Handler {
	allow := strings.Join(methods, ", ")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for _, m := range methods {
			if r.Method == m {
				next.ServeHTTP(w, r)
				return
			}
		}
		w.Header().Set("Allow", allow)
		s.writeError(w, r, http.StatusMethodNotAllowed,
			fmt.Sprintf("method %s not allowed; use %s", r.Method, allow), nil)
	})
}

// handleNotFound is the mux catch-all: every path outside the surface gets
// the JSON envelope with code "not_found".
func (s *service) handleNotFound(w http.ResponseWriter, r *http.Request) {
	s.writeError(w, r, http.StatusNotFound,
		fmt.Sprintf("no such endpoint %s; see /v1 (docs/SERVING.md)", r.URL.Path), nil)
}

// Handler returns the service's HTTP handler with default settings (the
// process-wide registry, no access log, the default body limit).
func Handler() http.Handler { return NewHandler(Config{}) }

// handleHealth is the liveness probe: 200 as long as the process can serve
// HTTP at all, including while draining — a draining instance is alive, it
// is just not ready (see handleReady). Restart decisions key off this.
func (s *service) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the readiness probe: 503 while the service is draining for
// shutdown or the solve queue is saturated, 200 otherwise. Routing decisions
// key off this — a 503 here takes the instance out of rotation without
// killing it.
func (s *service) handleReady(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		body := map[string]string{"status": "draining"}
		if n := s.jobs.Active(); n > 0 {
			// Drain accounting: load balancers and the shutdown sequence can
			// see how many async jobs the instance is still carrying.
			body["active_jobs"] = strconv.Itoa(n)
		}
		writeJSON(w, http.StatusServiceUnavailable, body)
	case s.recovering.Load():
		// Boot recovery (journal replay, snapshot restore, job re-admission)
		// is still running: the instance serves requests but stays out of
		// rotation until its recovered state is fully loaded — routing cold
		// traffic at it would just miss the cache it is about to restore.
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "recovering"})
	case s.sched.Saturated():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "saturated"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (s *service) handleDatasets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, r, http.StatusMethodNotAllowed, fmt.Sprintf("method %s not allowed; use GET", r.Method), nil)
		return
	}
	type entry struct {
		Name       string `json:"name"`
		Areas      int    `json:"areas"`
		States     int    `json:"states"`
		Components int    `json:"components"`
	}
	var out []entry
	for _, name := range census.SizeNames() {
		sz := census.Sizes[name]
		out = append(out, entry{name, sz.Areas, sz.States, sz.Components})
	}
	writeJSON(w, http.StatusOK, out)
}

// decodeSolveRequest decodes and validates a solve submission body — the
// shared front door of POST /v1/solve and POST /v1/jobs. It normalizes the
// seed and timeout (so fingerprints computed from the returned request are
// canonical), parses the constraint set, maps the options onto a solver
// config and attaches the service-wide worker pool. On any error it writes
// the enveloped response itself and reports ok=false.
func (s *service) decodeSolveRequest(w http.ResponseWriter, r *http.Request) (req *SolveRequest, set constraint.Set, cfg fact.Config, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, r, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds the %d byte limit", tooLarge.Limit), nil)
			return nil, nil, cfg, false
		}
		s.writeError(w, r, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err), nil)
		return nil, nil, cfg, false
	}
	req, set, cfg, errMsg := s.parseSolveRequest(body)
	if errMsg != "" {
		s.writeError(w, r, http.StatusBadRequest, errMsg, nil)
		return nil, nil, cfg, false
	}
	return req, set, cfg, true
}

// parseSolveRequest is decodeSolveRequest minus the HTTP: it parses and
// validates a solve submission body and returns a non-empty errMsg (the 400
// message) on rejection. The durable recovery path re-admits journaled jobs
// through it, so a journaled body goes through exactly the validation its
// original submit did.
func (s *service) parseSolveRequest(body []byte) (req *SolveRequest, set constraint.Set, cfg fact.Config, errMsg string) {
	req = new(SolveRequest)
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(req); err != nil {
		return nil, nil, cfg, fmt.Sprintf("bad request body: %v", err)
	}
	switch {
	case req.Dataset != nil && req.Named != "":
		return nil, nil, cfg, "dataset and named are mutually exclusive"
	case req.Dataset == nil && req.Named == "":
		return nil, nil, cfg, "one of dataset or named is required"
	}
	// Scale semantics: 0 means "unset, use the full dataset"; anything else
	// must be a genuine shrink factor. Previously scale >= 1 fell through
	// silently to the full dataset, so a client asking for scale 2 got a
	// differently-sized answer than it thought it requested.
	if req.Scale != 0 && (req.Scale <= 0 || req.Scale >= 1) {
		return nil, nil, cfg,
			fmt.Sprintf("scale must be in (0,1) exclusive, got %g; omit it (or send 0) for the full dataset", req.Scale)
	}
	if req.TimeoutMillis < 0 {
		return nil, nil, cfg, fmt.Sprintf("timeout_ms must be non-negative, got %d", req.TimeoutMillis)
	}
	// Clamp before fingerprinting: the effective deadline shapes the result
	// (a degraded answer under a tight budget must not be served to a
	// request that asked for the full budget), and singleflight followers
	// share the leader's deadline — so the fingerprint carries the clamped
	// value, and requests asking for "the max" in different spellings
	// (0, the max, anything above it) share one cache entry.
	req.TimeoutMillis = clampTimeoutMillis(req.TimeoutMillis, s.maxTimeout)
	req.Options.Seed = normalizeSeed(req.Options.Seed)
	set, err := constraint.ParseSet(req.Constraints)
	if err != nil {
		return nil, nil, cfg, err.Error()
	}
	if len(set) == 0 {
		return nil, nil, cfg, "no constraints given"
	}
	cfg, err = req.Options.Config()
	if err != nil {
		return nil, nil, cfg, err.Error()
	}
	// Every fan-out of the solve (shard sub-solves, multi-start iterations)
	// draws from the service-wide pool so the aggregate parallelism respects
	// one worker budget no matter how many solves run concurrently.
	cfg.Pool = s.pool
	return req, set, cfg, ""
}

func (s *service) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, r, http.StatusMethodNotAllowed, fmt.Sprintf("method %s not allowed; use POST", r.Method), nil)
		return
	}
	req, set, cfg, ok := s.decodeSolveRequest(w, r)
	if !ok {
		return
	}

	fp := solveFingerprint(req, set)
	if v, ok := s.resCache.Get(fp); ok {
		s.writeSolveResponse(w, r, v.(*SolveResponse))
		return
	}
	// The flight's context is detached from the request (followers may outlive
	// the leader), so it carries no request values; re-attach the leader's span
	// identity explicitly or the solve's spans would start a disconnected trace.
	sc := obs.SpanContextFrom(r.Context())
	v, shared, err := s.flights.Do(r.Context(), fp, func(fctx context.Context) (any, error) {
		if sc.IsValid() {
			fctx = obs.ContextWithSpan(fctx, sc)
		}
		return s.runSolve(fctx, req, set, cfg, fp), nil
	})
	if shared {
		s.dedups.Inc()
	}
	if err != nil {
		// This client left before the (possibly still shared) solve
		// finished; the flight itself keeps running for other waiters.
		s.writeError(w, r, statusClientClosed, "client closed request", nil)
		return
	}
	oc := v.(*solveOutcome)
	if oc.retryAfter {
		w.Header().Set("Retry-After", strconv.Itoa(s.sched.RetryAfterSeconds()))
	}
	if oc.resp == nil {
		s.writeError(w, r, oc.status, oc.errMsg, oc.reasons)
		return
	}
	s.writeSolveResponse(w, r, oc.resp)
}

func buildResponse(res *fact.Result) SolveResponse {
	// Feasibility warnings and solve-level warnings (degraded phases,
	// dropped components) both reach the client. Previously only the
	// feasibility ones did; the merged slice stays nil when both are empty
	// so omitempty keeps warning-free responses byte-identical.
	warnings := res.Feasibility.Warnings
	if len(res.Warnings) > 0 {
		warnings = append(append([]string(nil), warnings...), res.Warnings...)
	}
	return SolveResponse{
		P:                  res.P,
		Unassigned:         res.Unassigned,
		HeteroBefore:       res.HeteroBefore,
		HeteroAfter:        res.HeteroAfter,
		HeteroImprovement:  res.HeteroImprovement(),
		Assignment:         res.Partition.DenseAssignment(),
		ConstructionMillis: float64(res.ConstructionTime.Microseconds()) / 1000,
		LocalSearchMillis:  float64(res.LocalSearchTime.Microseconds()) / 1000,
		TabuMoves:          res.TabuMoves,
		InvalidAreas:       res.Feasibility.InvalidCount,
		SeedAreas:          res.Feasibility.SeedCount,
		Warnings:           warnings,
		Degraded:           res.Degraded,
		Solver: SolverStats{
			FeasibilityMillis:  float64(res.FeasibilityTime.Microseconds()) / 1000,
			Iterations:         res.Iterations,
			Improvements:       res.Improvements,
			CandidateEvals:     res.Search.CandidateEvals,
			HeapPushes:         res.Search.HeapPushes,
			HeapPops:           res.Search.HeapPops,
			TabuRejections:     res.Search.TabuRejections,
			RemovabilityPasses: res.Search.RemovabilityPasses,
		},
	}
}

// writeError sends the JSON error envelope, tagged with the request id.
func (s *service) writeError(w http.ResponseWriter, r *http.Request, status int, msg string, reasons []string) {
	writeJSON(w, status, errorEnvelope{Error: errorDetail{
		Code:      errorCode(status),
		Message:   msg,
		Reasons:   reasons,
		RequestID: RequestIDFrom(r.Context()),
	}})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
