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
// runs the same executeSolve as the sync path, and feeds the job's event log
// through the flight recorder's tap.

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
	// Result is the full solve response (done jobs on the status endpoint;
	// the list view omits it).
	Result *SolveResponse `json:"result,omitempty"`
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
	// the cache.
	if v, ok := s.resCache.Get(fp); ok {
		resp := v.(*SolveResponse)
		seed := append([]int(nil), resp.Assignment...)
		j := s.jobs.SubmitDone(fp, dsKey, dsLabel, resp, responseCost(resp), seed, resp.P, resp.HeteroAfter)
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
	// Warm start: the newest finished job on the same dataset seeds this
	// solve's construction (WarmSeed excludes the job's own fingerprint, so
	// only genuinely different requests — typically a perturbed constraint
	// set — warm-start). Warm results are trajectory-dependent, so runJob
	// keeps them out of the shared result cache.
	if seed, fromID, ok := s.jobs.WarmSeed(dsKey, fp); ok {
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
	rec := s.fstore.Begin(sc.Trace, j.Dataset())
	defer s.fstore.Finish(sc.Trace)
	s.jobs.SetTrace(j, sc.Trace.String())
	// The recorder tap is the event source: every phase transition and
	// incumbent improvement the solver records lands in the job's event log,
	// so the SSE stream and the debug curve are one and the same data.
	rec.SetTap(j.AppendSample)
	// With a state dir, improvements also feed the job's incumbent checkpoint:
	// the recorder hands the solver's current assignment to the checkpointer,
	// which throttles and persists it so a crash resumes from near the front.
	if ck := s.newCheckpointer(j, fp); ck != nil {
		rec.SetAssignTap(func(sm flight.Sample, assign func() []int) {
			ck.Offer(sm.P, sm.H, sm.Moves, assign)
		})
	}
	s.jobs.SetRecorder(j, rec)
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
		if len(cfg.WarmStart) == 0 {
			// Cold results are exactly what POST /v1/solve would have
			// produced: share them through the result cache. Warm-started
			// results depend on the seed partition's trajectory and must not
			// be served to cold requests under the same fingerprint.
			s.resCache.Add(fp, oc.resp, responseCost(oc.resp))
		}
		seed := append([]int(nil), oc.resp.Assignment...)
		s.jobs.Finish(j, oc.resp, responseCost(oc.resp), seed, oc.resp.P, oc.resp.HeteroAfter)
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

// handleJobEvents streams the job's event log: everything recorded so far,
// then live events as the solve appends them, ending with the terminal
// "done" event. Content negotiation: an Accept containing text/event-stream
// gets SSE (`event:`/`data:` frames, one per event); everything else gets
// NDJSON (one JSON event per line). `?since=N` resumes from sequence N, so a
// reconnecting watcher skips what it already saw. Disconnecting only
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
	flusher, _ := w.(http.Flusher)
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
		if len(evs) > 0 && flusher != nil {
			flusher.Flush()
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

// jobStatus renders a job for the wire. full includes the retained result
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
	default:
		if resp, ok := snap.Result.(*SolveResponse); ok {
			st.P, st.H = resp.P, resp.HeteroAfter
			if full {
				st.Result = resp
			}
		}
	}
	return st
}

// jobDatasetKey keys the warm-start index by dataset identity: named/scaled
// datasets by their generation parameters, inline ones by content. Jobs on
// the same key solve the same substrate, so a retained final assignment is a
// meaningful construction seed for them.
func jobDatasetKey(req *SolveRequest) string {
	if req.Dataset != nil {
		return solvecache.Key("dataset-inline", string(req.Dataset))
	}
	return datasetKey(req.Named, req.Scale, req.Options.Seed)
}
