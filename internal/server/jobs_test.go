package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"emp/internal/fault"
	"emp/internal/jobs"
	"emp/internal/obs"
)

// postJob submits one POST /v1/jobs body and decodes the returned status.
func postJob(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, JobStatus) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var st JobStatus
	if rec.Code == http.StatusAccepted || rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("job submit body %s: %v", rec.Body.String(), err)
		}
	}
	return rec, st
}

// getJob fetches one job's status.
func getJob(t *testing.T, h http.Handler, id string) (int, JobStatus) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
	var st JobStatus
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("job status body %s: %v", rec.Body.String(), err)
		}
	}
	return rec.Code, st
}

// waitJobTerminal polls until the job reaches a terminal state.
func waitJobTerminal(t *testing.T, h http.Handler, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, st := getJob(t, h, id)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s = %d", id, code)
		}
		switch st.State {
		case "done", "failed", "canceled":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

const jobBody = `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000","options":{"seed":5}}`

// TestJobLifecycleEndToEnd: submit → 202 with Location, poll to done, replay
// the NDJSON event stream and check it agrees with the stored result: at
// least one incumbent improvement, a single terminal event whose p/H equal
// the status endpoint's result, strictly increasing sequence numbers.
func TestJobLifecycleEndToEnd(t *testing.T) {
	h, _ := newServingHandler(t, Config{})
	rec, st := postJob(t, h, jobBody)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Location") != "/v1/jobs/"+st.ID {
		t.Errorf("Location = %q, want /v1/jobs/%s", rec.Header().Get("Location"), st.ID)
	}
	if st.State != "queued" && st.State != "running" {
		t.Errorf("fresh job state = %q", st.State)
	}
	final := waitJobTerminal(t, h, st.ID)
	if final.State != "done" || final.Result == nil {
		t.Fatalf("final = %+v, want done with a result", final)
	}
	if final.Result.P != final.P || final.Result.HeteroAfter != final.H {
		t.Errorf("status (p=%d h=%g) disagrees with result (p=%d h=%g)",
			final.P, final.H, final.Result.P, final.Result.HeteroAfter)
	}
	if final.TraceID == "" || final.Started == "" || final.Finished == "" {
		t.Errorf("terminal status missing trace/timestamps: %+v", final)
	}

	// Replay the event log as NDJSON (no Accept header): a finished job's
	// stream returns everything and closes.
	evRec := httptest.NewRecorder()
	h.ServeHTTP(evRec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID+"/events", nil))
	if evRec.Code != http.StatusOK {
		t.Fatalf("events = %d: %s", evRec.Code, evRec.Body.String())
	}
	if ct := evRec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type = %q", ct)
	}
	var evs []jobs.Event
	for _, line := range strings.Split(strings.TrimSpace(evRec.Body.String()), "\n") {
		var ev jobs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	if len(evs) < 2 {
		t.Fatalf("event log has %d events, want phase transitions plus a terminal", len(evs))
	}
	incumbents, dones := 0, 0
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d (gap or duplicate)", i, ev.Seq)
		}
		switch ev.Type {
		case "incumbent":
			incumbents++
		case "done":
			dones++
		}
	}
	if incumbents < 1 {
		t.Error("no incumbent events recorded")
	}
	if dones != 1 {
		t.Fatalf("terminal events = %d, want exactly 1", dones)
	}
	last := evs[len(evs)-1]
	if last.Type != "done" || last.State != "done" {
		t.Fatalf("last event = %+v, want the done marker", last)
	}
	if last.P != final.Result.P || last.H != final.Result.HeteroAfter {
		t.Errorf("terminal event (p=%d h=%g) != stored result (p=%d h=%g)",
			last.P, last.H, final.Result.P, final.Result.HeteroAfter)
	}

	// Resume cursor: since=<last> returns only the terminal event.
	evRec = httptest.NewRecorder()
	h.ServeHTTP(evRec, httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/v1/jobs/%s/events?since=%d", st.ID, last.Seq), nil))
	lines := strings.Split(strings.TrimSpace(evRec.Body.String()), "\n")
	if len(lines) != 1 {
		t.Errorf("since=%d returned %d events, want 1", last.Seq, len(lines))
	}

	// The job appears in the collection listing (without the bulky result).
	listRec := httptest.NewRecorder()
	h.ServeHTTP(listRec, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
	var list []JobStatus
	if err := json.Unmarshal(listRec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list body %s: %v", listRec.Body.String(), err)
	}
	found := false
	for _, row := range list {
		if row.ID == st.ID {
			found = true
			if row.Result != nil {
				t.Error("list view includes the full result")
			}
		}
	}
	if !found {
		t.Errorf("job %s missing from GET /v1/jobs", st.ID)
	}
}

// TestJobEventsSSELive streams a slowed solve over a real HTTP server: SSE
// frames arrive while the solve runs, incumbents improve strictly, and a
// second watcher disconnecting mid-stream neither cancels the solve nor
// disturbs the surviving watcher, whose stream still ends in the done event.
func TestJobEventsSSELive(t *testing.T) {
	h, reg := newServingHandler(t, Config{})
	srv := httptest.NewServer(h)
	defer srv.Close()
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "tabu.epoch", Kind: fault.KindDelay, Delay: 20 * time.Millisecond, Times: 1 << 30},
	}})
	defer fault.Enable(nil)

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(jobBody))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}

	stream := func() (*http.Response, error) {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+st.ID+"/events", nil)
		req.Header.Set("Accept", "text/event-stream")
		return http.DefaultClient.Do(req)
	}

	// Watcher A: reads to the end. Watcher B: disconnects after one frame.
	aResp, err := stream()
	if err != nil {
		t.Fatal(err)
	}
	defer aResp.Body.Close()
	if ct := aResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	bResp, err := stream()
	if err != nil {
		t.Fatal(err)
	}
	bReader := bufio.NewReader(bResp.Body)
	if _, err := bReader.ReadString('\n'); err != nil {
		t.Fatalf("watcher B first frame: %v", err)
	}
	bResp.Body.Close() // B walks away mid-solve

	var events, incumbents int
	var lastData string
	sawDone := false
	scan := bufio.NewReader(aResp.Body)
	for {
		line, err := scan.ReadString('\n')
		if err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "event: "):
			events++
			typ := strings.TrimPrefix(line, "event: ")
			if typ == "incumbent" {
				incumbents++
			}
			if typ == "done" {
				sawDone = true
			}
		case strings.HasPrefix(line, "data: "):
			lastData = strings.TrimPrefix(line, "data: ")
		}
	}
	if events < 2 || incumbents < 1 || !sawDone {
		t.Fatalf("stream saw %d events (%d incumbents, done=%v)", events, incumbents, sawDone)
	}
	var last jobs.Event
	if err := json.Unmarshal([]byte(lastData), &last); err != nil {
		t.Fatalf("last frame %q: %v", lastData, err)
	}
	if last.State != "done" {
		t.Fatalf("stream ended with state %q — watcher B's disconnect must not cancel the solve", last.State)
	}
	final := waitJobTerminal(t, h, st.ID)
	if final.State != "done" {
		t.Fatalf("job state = %q after streaming, want done", final.State)
	}
	if last.P != final.Result.P || last.H != final.Result.HeteroAfter {
		t.Errorf("final SSE event (p=%d h=%g) != stored result (p=%d h=%g)",
			last.P, last.H, final.Result.P, final.Result.HeteroAfter)
	}
	if reg.Counter("emp_solve_canceled_total", "").Value() != 0 {
		t.Error("a watcher disconnect canceled the solve")
	}
	if g := reg.Gauge("emp_jobs_watchers", "").Value(); g != 0 {
		t.Errorf("watcher gauge = %d after both streams closed", g)
	}
}

// TestJobCancelWhileQueued wedges the only worker with a sync solve, submits
// a job (which must queue), cancels it, and checks it never runs: state
// canceled, no started timestamp, a sealed event log whose terminal event
// says canceled, and an idempotent second DELETE.
func TestJobCancelWhileQueued(t *testing.T) {
	sv := New(Config{Registry: obs.New(), Workers: 1})
	h := sv.Handler()
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "tabu.epoch", Kind: fault.KindDelay, Delay: 30 * time.Millisecond, Times: 1 << 30},
	}})
	defer fault.Enable(nil)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postSolve(h, `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000","timeout_ms":3000,"options":{"seed":6}}`, "", nil)
	}()
	// Wait until the sync solve holds the worker.
	deadline := time.Now().Add(10 * time.Second)
	for sv.s.fstore.StoreStats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sync solve never started")
		}
		time.Sleep(time.Millisecond)
	}

	rec, st := postJob(t, h, jobBody)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
	}
	delRec := httptest.NewRecorder()
	h.ServeHTTP(delRec, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+st.ID, nil))
	if delRec.Code != http.StatusOK || !strings.Contains(delRec.Body.String(), `"canceled"`) {
		t.Fatalf("cancel = %d: %s", delRec.Code, delRec.Body.String())
	}
	final := waitJobTerminal(t, h, st.ID)
	if final.State != "canceled" {
		t.Fatalf("state after cancel = %q", final.State)
	}
	if final.Started != "" {
		t.Errorf("canceled-while-queued job has a started timestamp %q", final.Started)
	}
	// The event stream is sealed with a canceled terminal event.
	evRec := httptest.NewRecorder()
	h.ServeHTTP(evRec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID+"/events", nil))
	lines := strings.Split(strings.TrimSpace(evRec.Body.String()), "\n")
	var lastEv jobs.Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &lastEv); err != nil {
		t.Fatal(err)
	}
	if lastEv.Type != "done" || lastEv.State != "canceled" {
		t.Errorf("terminal event = %+v, want done/canceled", lastEv)
	}
	// Second DELETE is an idempotent no-op reporting the same state.
	delRec = httptest.NewRecorder()
	h.ServeHTTP(delRec, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+st.ID, nil))
	if delRec.Code != http.StatusOK || !strings.Contains(delRec.Body.String(), `"canceled"`) {
		t.Errorf("re-cancel = %d: %s", delRec.Code, delRec.Body.String())
	}
	wg.Wait()
	// The canceled job must stay canceled even after the worker frees up.
	time.Sleep(20 * time.Millisecond)
	if _, st := getJob(t, h, st.ID); st.State != "canceled" {
		t.Errorf("job resurrected as %q after the worker freed", st.State)
	}
}

// TestJobDuplicateSubmitDedupe: an identical body while the first job is
// active attaches to it (200, same id) instead of spawning a second solve.
func TestJobDuplicateSubmitDedupe(t *testing.T) {
	h, reg := newServingHandler(t, Config{})
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "tabu.epoch", Kind: fault.KindDelay, Delay: 20 * time.Millisecond, Times: 1 << 30},
	}})
	defer fault.Enable(nil)
	rec1, st1 := postJob(t, h, jobBody)
	if rec1.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d", rec1.Code)
	}
	rec2, st2 := postJob(t, h, jobBody)
	if rec2.Code != http.StatusOK {
		t.Fatalf("duplicate submit = %d, want 200", rec2.Code)
	}
	if st2.ID != st1.ID {
		t.Fatalf("duplicate got job %s, want %s", st2.ID, st1.ID)
	}
	if v := reg.Counter("emp_jobs_deduped_total", "").Value(); v != 1 {
		t.Errorf("emp_jobs_deduped_total = %d, want 1", v)
	}
	fault.Enable(nil)
	waitJobTerminal(t, h, st1.ID)
}

// TestJobDoneOnArrival: a fingerprint already in the result cache becomes a
// job that is born done, result attached, without consuming a worker.
func TestJobDoneOnArrival(t *testing.T) {
	h, _ := newServingHandler(t, Config{})
	body := `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000","options":{"seed":8,"skip_local_search":true}}`
	if rec := postSolve(h, body, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("warmup solve = %d", rec.Code)
	}
	rec, st := postJob(t, h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("cached submit = %d, want 200", rec.Code)
	}
	if st.State != "done" || st.Result == nil {
		t.Fatalf("cached job = %+v, want done with result", st)
	}
}

// TestJobWarmStartResubmit: after a job finishes on a dataset, a job with a
// perturbed constraint set on the same dataset warm-starts from its
// partition (warm_from set, warm counter bumped) and still converges to a
// valid done state. The warm result must NOT be shared through the result
// cache: a later sync POST /v1/solve with the same body runs cold.
func TestJobWarmStartResubmit(t *testing.T) {
	h, reg := newServingHandler(t, Config{})
	rec, first := postJob(t, h, jobBody)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d", rec.Code)
	}
	waitJobTerminal(t, h, first.ID)

	perturbed := `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 21000","options":{"seed":5}}`
	rec2, second := postJob(t, h, perturbed)
	if rec2.Code != http.StatusAccepted {
		t.Fatalf("perturbed submit = %d: %s", rec2.Code, rec2.Body.String())
	}
	if second.WarmFrom != first.ID {
		t.Fatalf("warm_from = %q, want %s", second.WarmFrom, first.ID)
	}
	if v := reg.Counter("emp_jobs_warmstart_total", "").Value(); v != 1 {
		t.Errorf("emp_jobs_warmstart_total = %d, want 1", v)
	}
	final := waitJobTerminal(t, h, second.ID)
	if final.State != "done" || final.Result == nil || final.Result.P == 0 {
		t.Fatalf("warm job final = %+v, want done with regions", final)
	}
	// The warm-started result is trajectory-dependent: the sync path with the
	// same fingerprint must miss the cache and solve cold.
	misses := reg.Counter("emp_result_cache_misses_total", "").Value()
	if rec := postSolve(h, perturbed, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("sync solve = %d", rec.Code)
	}
	if now := reg.Counter("emp_result_cache_misses_total", "").Value(); now != misses+1 {
		t.Errorf("sync solve after warm job was a cache hit (misses %d -> %d): warm results leaked into the result cache", misses, now)
	}
}

// TestJobDeterminismAcrossWorkersAndWatchers: the same submission produces
// the identical final partition regardless of worker count or how many event
// watchers were attached.
func TestJobDeterminismAcrossWorkersAndWatchers(t *testing.T) {
	run := func(workers int, watch bool) *SolveResponse {
		h, _ := newServingHandler(t, Config{Workers: workers})
		rec, st := postJob(t, h, jobBody)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit = %d", rec.Code)
		}
		if watch {
			evRec := httptest.NewRecorder()
			h.ServeHTTP(evRec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID+"/events", nil))
		}
		final := waitJobTerminal(t, h, st.ID)
		if final.State != "done" {
			t.Fatalf("state = %q", final.State)
		}
		return final.Result
	}
	base := run(1, false)
	for _, v := range []*SolveResponse{run(4, false), run(2, true)} {
		if v.P != base.P || v.HeteroAfter != base.HeteroAfter {
			t.Fatalf("result varies with workers/watchers: (p=%d h=%g) vs (p=%d h=%g)",
				v.P, v.HeteroAfter, base.P, base.HeteroAfter)
		}
		for i := range base.Assignment {
			if v.Assignment[i] != base.Assignment[i] {
				t.Fatalf("assignment diverges at area %d", i)
			}
		}
	}
}

// TestJobSubmitLimits: MaxActiveJobs rejects with the enveloped 429 and a
// Retry-After header; draining instances refuse submits with 503.
func TestJobSubmitLimits(t *testing.T) {
	sv := New(Config{Registry: obs.New(), Workers: 1, MaxActiveJobs: 1})
	h := sv.Handler()
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "tabu.epoch", Kind: fault.KindDelay, Delay: 20 * time.Millisecond, Times: 1 << 30},
	}})
	defer fault.Enable(nil)
	rec, st := postJob(t, h, jobBody)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d", rec.Code)
	}
	// A different fingerprint (other seed) cannot dedupe, so it trips the cap.
	over := httptest.NewRecorder()
	h.ServeHTTP(over, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000","options":{"seed":99}}`)))
	if over.Code != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit = %d, want 429: %s", over.Code, over.Body.String())
	}
	if over.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if detail := decodeError(t, over); detail.Code != "overloaded" {
		t.Errorf("429 code = %q", detail.Code)
	}

	sv.SetDraining(true)
	drain := httptest.NewRecorder()
	h.ServeHTTP(drain, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(jobBody)))
	if drain.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining submit = %d, want 503", drain.Code)
	}
	sv.SetDraining(false)
	fault.Enable(nil)
	waitJobTerminal(t, h, st.ID)
}

// TestDrainJobsWaitsForRunners: DrainJobs blocks until the in-flight job's
// runner returns, and /v1/readyz surfaces the count while draining.
func TestDrainJobsWaitsForRunners(t *testing.T) {
	sv := New(Config{Registry: obs.New()})
	h := sv.Handler()
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "tabu.epoch", Kind: fault.KindDelay, Delay: 20 * time.Millisecond, Times: 1 << 30},
	}})
	defer fault.Enable(nil)
	rec, st := postJob(t, h, jobBody)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", rec.Code)
	}
	sv.SetDraining(true)
	if n := sv.InflightJobs(); n != 1 {
		t.Fatalf("InflightJobs = %d, want 1", n)
	}
	ready := httptest.NewRecorder()
	h.ServeHTTP(ready, httptest.NewRequest(http.MethodGet, "/v1/readyz", nil))
	if ready.Code != http.StatusServiceUnavailable || !strings.Contains(ready.Body.String(), `"active_jobs":"1"`) {
		t.Errorf("draining readyz = %d %s, want 503 with active_jobs", ready.Code, ready.Body.String())
	}
	fault.Enable(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if !sv.DrainJobs(ctx) {
		t.Fatal("DrainJobs did not complete")
	}
	if sv.InflightJobs() != 0 {
		t.Errorf("InflightJobs = %d after drain", sv.InflightJobs())
	}
	if _, fin := getJob(t, h, st.ID); fin.State != "done" {
		t.Errorf("job state after drain = %q", fin.State)
	}
}

// TestDebugTraceQueuedJob is the satellite regression: a job still waiting
// for a worker has a registered trace whose dump is a well-formed partial
// tree — spans, tree and curve encode as [] rather than null.
func TestDebugTraceQueuedJob(t *testing.T) {
	sv := New(Config{Registry: obs.New(), Workers: 1})
	h := sv.Handler()
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "tabu.epoch", Kind: fault.KindDelay, Delay: 30 * time.Millisecond, Times: 1 << 30},
	}})
	defer fault.Enable(nil)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postSolve(h, `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000","timeout_ms":3000,"options":{"seed":11}}`, "", nil)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for sv.s.fstore.StoreStats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sync solve never started")
		}
		time.Sleep(time.Millisecond)
	}
	_, st := postJob(t, h, jobBody)
	// The runner registers the trace before it queues for a worker; poll the
	// status endpoint until the id shows up.
	var traceID string
	for traceID == "" {
		if time.Now().After(deadline) {
			t.Fatal("queued job never got a trace id")
		}
		_, cur := getJob(t, h, st.ID)
		if cur.State != "queued" && cur.State != "running" {
			t.Fatalf("job advanced to %q before the worker freed", cur.State)
		}
		traceID = cur.TraceID
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/trace/"+traceID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("queued job trace = %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	for _, want := range []string{`"spans":[]`, `"tree":[]`, `"curve":[]`, `"in_flight":true`} {
		if !strings.Contains(body, want) {
			t.Errorf("queued trace dump missing %s: %s", want, body)
		}
	}
	// Clean up: cancel the queued job and let the sync solve finish.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+st.ID, nil))
	wg.Wait()
}
