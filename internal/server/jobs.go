package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"emp/internal/constraint"
	"emp/internal/fact"
	"emp/internal/flight"
	"emp/internal/jobs"
	"emp/internal/obs"
	"emp/internal/solvecache"
)

// The async job surface: POST /v1/jobs submits a solve and returns
// immediately with a job id; GET /v1/jobs/{id} polls status (with the live
// incumbent while running); GET /v1/jobs/{id}/events streams incumbent
// improvements as SSE or NDJSON; DELETE /v1/jobs/{id} cancels. The job store
// (internal/jobs) owns identity and lifecycle; this file owns execution —
// each accepted job gets a runner goroutine that waits for a scheduler slot,
// runs the same executeSolve as the sync path under a flight recorder whose
// log the job's event stream reads.
//
// A job's answer lives only in the result store (resCache); the job record
// names it by key. A cold answer is keyed by its request fingerprint, like
// a sync solve's. A warm-started or checkpoint-resumed answer depends on its
// seed's trajectory, so it goes under jobResultKey, out of reach of
// fingerprint lookups.

// JobStatus is the wire form of a job on GET /v1/jobs and GET /v1/jobs/{id}.
type JobStatus struct {
	ID      string `json:"id"`
	State   string `json:"state"` // queued | running | done | failed | canceled
	Dataset string `json:"dataset"`
	// TraceID is the /v1/debug/trace/{id} handle of the job's solve; set once
	// the runner starts, so queued jobs may omit it.
	TraceID string `json:"trace_id,omitempty"`
	// WarmFrom names the finished job whose partition seeded this solve's
	// construction; absent on cold solves.
	WarmFrom string `json:"warm_from,omitempty"`
	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
	// Live solve position (queued/running jobs): current phase, wall time and
	// the best incumbent so far. On terminal jobs P/H are the final values.
	Phase     string  `json:"phase,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
	P         int     `json:"p"`
	H         float64 `json:"h"`
	Events    int     `json:"events"`
	// Error carries the failure (failed jobs only), in the same shape as the
	// sync error envelope's detail.
	Error *errorDetail `json:"error,omitempty"`
	// Result is the full solve response (done jobs on the status endpoint,
	// while the result store holds it; the list view omits it).
	Result *SolveResponse `json:"result,omitempty"`
}

// jobKeyPrefix starts the result-store key of a warm-started or
// checkpoint-resumed job's answer. A request fingerprint is 64 hex digits,
// so no fingerprint lookup can reach such a key.
const jobKeyPrefix = "job/"

func jobResultKey(id string) string { return jobKeyPrefix + id }

// storedAnswer reads the answer under key from the result store without
// counting a lookup: status and warm-seed reads are not requests for a
// result. Nil once the store has evicted it.
func (s *service) storedAnswer(key string) *SolveResponse {
	v, _ := s.resCache.Peek(key)
	resp, _ := v.(*SolveResponse)
	return resp
}

// handleJobs serves the collection: POST submits, GET lists.
func (s *service) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleJobSubmit(w, r)
	case http.MethodGet:
		out := []JobStatus{}
		for _, j := range s.jobs.Jobs() {
			out = append(out, s.jobStatus(j, false))
		}
		writeJSON(w, http.StatusOK, out)
	default:
		w.Header().Set("Allow", "GET, POST")
		s.writeError(w, r, http.StatusMethodNotAllowed,
			fmt.Sprintf("method %s not allowed; use GET, POST", r.Method), nil)
	}
}

// handleJobSubmit admits one async solve. The body is the same SolveRequest
// as POST /v1/solve; the response is the job's status (202 for a fresh job,
// 200 when the submit attached to an active duplicate or hit the result
// cache) with a Location header pointing at the status endpoint.
func (s *service) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// An async job outlives its submit request: accepting one while
		// draining would stall shutdown for up to a full solve.
		s.writeError(w, r, http.StatusServiceUnavailable, "draining: not accepting new jobs", nil)
		return
	}
	req, set, cfg, ok := s.decodeSolveRequest(w, r)
	if !ok {
		return
	}
	fp := solveFingerprint(req, set)
	dsKey := jobDatasetKey(req)
	dsLabel := req.Named
	if dsLabel == "" {
		dsLabel = "inline"
	}
	// A result-cache hit becomes a job that is done on arrival: clients keep
	// one code path (submit, then read status/events) and still benefit from
	// the cache. The job names the cached answer; nothing is copied.
	if v, ok := s.resCache.Get(fp); ok {
		resp := v.(*SolveResponse)
		j := s.jobs.SubmitDone(fp, dsKey, dsLabel, fp, resp.P, resp.HeteroAfter)
		s.jobsSubmitted.Inc()
		w.Header().Set("Location", "/v1/jobs/"+j.ID())
		writeJSON(w, http.StatusOK, s.jobStatus(j, true))
		return
	}
	j, dup, err := s.jobs.Submit(fp, dsKey, dsLabel)
	if err != nil {
		if errors.Is(err, jobs.ErrTooManyJobs) {
			w.Header().Set("Retry-After", strconv.Itoa(s.sched.RetryAfterSeconds()))
			s.writeError(w, r, http.StatusTooManyRequests,
				"overloaded: too many active jobs; retry later or cancel some", nil)
			return
		}
		s.writeError(w, r, http.StatusInternalServerError, err.Error(), nil)
		return
	}
	if dup {
		// Same fingerprint already queued or running: attach, like the sync
		// path's singleflight. The caller polls/streams the existing job.
		s.jobsDeduped.Inc()
		w.Header().Set("Location", "/v1/jobs/"+j.ID())
		writeJSON(w, http.StatusOK, s.jobStatus(j, true))
		return
	}
	// Warm start: the newest done job on the same dataset seeds this
	// solve's construction (only genuinely different requests — typically a
	// perturbed constraint set — warm-start).
	if seed, fromID := s.warmSeed(dsKey, fp); seed != nil {
		cfg.WarmStart = seed
		s.jobs.SetWarmFrom(j, fromID)
		s.jobsWarm.Inc()
	}
	// Journal the admission before acknowledging it: a crash after this point
	// re-admits the job on the next boot under the same id.
	s.journalSubmit(j, req)
	s.jobsSubmitted.Inc()
	s.jobsActive.Set(int64(s.jobs.Active()))
	s.jobsWG.Add(1)
	go s.runJob(j, req, set, cfg, fp)
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	writeJSON(w, http.StatusAccepted, s.jobStatus(j, true))
}

// warmSeed returns the stored assignment of the newest done job on the
// dataset key, and that job's id, to seed a submission with fingerprint fp;
// nil when there is none (see jobs.Store.WarmSeed) or its answer has left
// the result store. The solver only reads a seed, so this is the stored
// assignment itself, not a copy.
func (s *service) warmSeed(dsKey, fp string) (seed []int, fromID string) {
	key, fromID, ok := s.jobs.WarmSeed(dsKey, fp)
	if !ok {
		return nil, ""
	}
	resp := s.storedAnswer(key)
	if resp == nil {
		return nil, ""
	}
	return resp.Assignment, fromID
}

// runJob executes one accepted job on its own goroutine: its lifetime is the
// job's, not any HTTP request's. Cancellation comes only from DELETE (via the
// store's cancel hook), never from watchers disconnecting.
func (s *service) runJob(j *jobs.Job, req *SolveRequest, set constraint.Set, cfg fact.Config, fp string) {
	defer s.jobsWG.Done()
	defer func() { s.jobsActive.Set(int64(s.jobs.Active())) }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.jobs.SetCancel(j, cancel)
	// Each job is its own trace root: the flight store retains the solve's
	// span tree and convergence curve under this id for /v1/debug/trace.
	sc := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	ctx = obs.ContextWithSpan(ctx, sc)
	// Begin before publishing the trace id: once the status endpoint shows
	// trace_id, /v1/debug/trace/{id} must resolve.
	rec := j.Recorder()
	s.fstore.Begin(sc.Trace, j.Dataset(), rec)
	defer s.fstore.Finish(sc.Trace, rec)
	s.jobs.SetTrace(j, sc.Trace.String())
	// With a state dir, the recorder's tap offers each incumbent that
	// carries its assignment to the checkpointer, which throttles and
	// persists it so a crash resumes from near the front.
	if ck := s.newCheckpointer(j, fp); ck != nil {
		rec.SetTap(func(sm flight.Sample, assign func() []int) {
			if assign != nil {
				ck.Offer(sm.P, sm.H, sm.Moves, assign)
			}
		})
	}
	ctx = flight.NewContext(ctx, rec)
	// Unlike the sync path, a queued job is not shed on queue pressure: it
	// already holds an admission slot (MaxActiveJobs), so it retries for a
	// worker until it gets one or is canceled.
	var release func()
	for {
		var err error
		release, err = s.sched.Acquire(ctx)
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			s.jobs.Fail(j, statusClientClosed, "job canceled while queued") // no-op if Cancel sealed it
			return
		}
		select {
		case <-ctx.Done():
			s.jobs.Fail(j, statusClientClosed, "job canceled while queued")
			return
		case <-time.After(250 * time.Millisecond):
		}
	}
	defer release()
	if !s.jobs.Start(j) {
		return // canceled while queued; Cancel already sealed the job
	}
	oc := s.executeSolve(ctx, req, set, cfg)
	if oc.resp != nil {
		// Stored before the job turns done, so a done status always finds it.
		key := fp
		if len(cfg.WarmStart) > 0 {
			key = jobResultKey(j.ID())
		}
		s.resCache.Add(key, oc.resp, responseCost(oc.resp))
		s.jobs.Finish(j, key, oc.resp.P, oc.resp.HeteroAfter)
		if j.Snapshot().State == jobs.StateDone {
			s.jobsDone.Inc()
		}
		return
	}
	s.jobs.Fail(j, oc.status, oc.errMsg)
	if j.Snapshot().State == jobs.StateFailed {
		s.jobsFailed.Inc()
	}
}

// handleJob serves one job: GET status, DELETE cancel, GET …/events stream.
func (s *service) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" || (sub != "" && sub != "events") {
		s.handleNotFound(w, r)
		return
	}
	j, ok := s.jobs.Get(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound,
			fmt.Sprintf("no such job %q (finished jobs expire after their TTL)", id), nil)
		return
	}
	switch {
	case sub == "events":
		s.handleJobEvents(w, r, j)
	case r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, s.jobStatus(j, true))
	case r.Method == http.MethodDelete:
		wasTerminal := j.Snapshot().State.Terminal()
		st, ok := s.jobs.Cancel(id)
		if !ok {
			s.writeError(w, r, http.StatusNotFound, fmt.Sprintf("no such job %q", id), nil)
			return
		}
		if st == jobs.StateCanceled && !wasTerminal {
			s.jobsCanceled.Inc()
		}
		s.jobsActive.Set(int64(s.jobs.Active()))
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": st.String()})
	default:
		w.Header().Set("Allow", "GET, DELETE")
		s.writeError(w, r, http.StatusMethodNotAllowed,
			fmt.Sprintf("method %s not allowed; use GET, DELETE", r.Method), nil)
	}
}

// handleJobEvents streams the job's events: everything logged so far, then
// live events as the solve logs them, ending with the terminal "done" event.
// Content negotiation: an Accept containing text/event-stream gets SSE
// (`event:`/`data:` frames, one per event); everything else gets NDJSON
// (one JSON event per line). `?since=N` resumes from sequence N, so a
// reconnecting watcher skips what it already saw; a cursor past the end of a
// finished job's stream still gets its "done" event. Disconnecting only
// unsubscribes this watcher — the solve keeps running for the job's
// lifetime, and other watchers keep their streams.
func (s *service) handleJobEvents(w http.ResponseWriter, r *http.Request, j *jobs.Job) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, r, http.StatusMethodNotAllowed,
			fmt.Sprintf("method %s not allowed; use GET", r.Method), nil)
		return
	}
	since := 0
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeError(w, r, http.StatusBadRequest,
				fmt.Sprintf("since must be a non-negative integer, got %q", v), nil)
			return
		}
		since = n
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	s.jobWatchers.Add(1)
	defer s.jobWatchers.Add(-1)
	ctx := r.Context()
	for {
		evs, next, sealed := j.EventsSince(since)
		for _, ev := range evs {
			b, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if sse {
				if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, b); err != nil {
					return
				}
			} else {
				if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
					return
				}
			}
			s.jobEventsSent.Inc()
			since = ev.Seq + 1
		}
		if len(evs) > 0 {
			_ = rc.Flush() // a writer that cannot flush still delivers the events when the stream ends
		}
		if sealed {
			return // terminal event delivered; the log will not grow
		}
		select {
		case <-ctx.Done():
			return // this watcher left; the job runs on
		case <-next:
		}
	}
}

// jobStatus renders a job for the wire. full includes the stored answer
// (the list view omits it — a 50k-area assignment per row would dwarf the
// listing).
func (s *service) jobStatus(j *jobs.Job, full bool) JobStatus {
	snap := j.Snapshot()
	st := JobStatus{
		ID:       snap.ID,
		State:    snap.State.String(),
		Dataset:  snap.Dataset,
		TraceID:  snap.TraceID,
		WarmFrom: snap.WarmFrom,
		Created:  snap.Created.UTC().Format(time.RFC3339Nano),
		Events:   snap.Events,
	}
	if !snap.Started.IsZero() {
		st.Started = snap.Started.UTC().Format(time.RFC3339Nano)
	}
	if !snap.Finished.IsZero() {
		st.Finished = snap.Finished.UTC().Format(time.RFC3339Nano)
	}
	switch snap.State {
	case jobs.StateQueued, jobs.StateRunning:
		// Live incumbent from the solve's flight recorder (nil-safe: a queued
		// job without a recorder reads as phase "queued", p=0).
		phase, elapsed, p, h := snap.Recorder.Status()
		st.Phase = phase.String()
		st.ElapsedMs = float64(elapsed.Microseconds()) / 1000
		st.P, st.H = p, h
	case jobs.StateFailed:
		st.Error = &errorDetail{Code: errorCode(snap.ErrStatus), Message: snap.ErrMsg}
	case jobs.StateDone:
		// (p, H) come from the sealed done event, so they outlive the
		// answer's eviction from the result store.
		st.P, st.H = snap.P, snap.H
		if full {
			st.Result = s.storedAnswer(snap.ResultKey)
		}
	}
	return st
}

// jobDatasetKey keys the warm-start index by dataset identity: named/scaled
// datasets by their generation parameters, inline ones by content. Jobs on
// the same key solve the same substrate, so a done job's final assignment is
// a meaningful construction seed for them.
func jobDatasetKey(req *SolveRequest) string {
	if req.Dataset != nil {
		return solvecache.Key("dataset-inline", string(req.Dataset))
	}
	return datasetKey(req.Named, req.Scale, req.Options.Seed)
}
