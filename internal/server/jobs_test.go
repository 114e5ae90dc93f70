package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"emp/internal/durable"
	"emp/internal/fault"
	"emp/internal/flight"
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

// getEvents replays a job's NDJSON event stream, with an optional query.
func getEvents(t *testing.T, h http.Handler, id, query string) []jobs.Event {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/events"+query, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("events%s = %d: %s", query, rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type = %q", ct)
	}
	var evs []jobs.Event
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		var ev jobs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	return evs
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
	evs := getEvents(t, h, st.ID, "")
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
	if got := getEvents(t, h, st.ID, fmt.Sprintf("?since=%d", last.Seq)); len(got) != 1 {
		t.Errorf("since=%d returned %d events, want 1", last.Seq, len(got))
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

// TestJobStreamIsTheDebugCurve: a finished job's event stream and its
// /v1/debug/trace curve are one sequence. Every event before done is the
// curve entry at the same index (p, H, phase, elapsed), seq has no gaps, the
// last incumbent carries the stored result, done sits at the curve's end,
// and a cursor far past that end (a watcher re-dialing a restarted server
// with the old run's cursor) gets exactly the done event.
func TestJobStreamIsTheDebugCurve(t *testing.T) {
	h, _ := newServingHandler(t, Config{})
	body := `{"named":"8k","constraints":"SUM(TOTALPOP) >= 20000","options":{"seed":3}}`
	rec, st := postJob(t, h, body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
	}
	final := waitJobTerminal(t, h, st.ID)
	if final.State != "done" || final.Result == nil {
		t.Fatalf("final = %+v, want done with a result", final)
	}
	evs := getEvents(t, h, st.ID, "")
	dumpRec := httptest.NewRecorder()
	h.ServeHTTP(dumpRec, httptest.NewRequest(http.MethodGet, "/v1/debug/trace/"+final.TraceID, nil))
	if dumpRec.Code != http.StatusOK {
		t.Fatalf("debug trace = %d: %s", dumpRec.Code, dumpRec.Body.String())
	}
	var dump flight.TraceDump
	if err := json.Unmarshal(dumpRec.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	curve := dump.Curve
	t.Logf("%d events, %d curve entries", len(evs), len(curve))
	if len(evs) != len(curve)+1 || final.Events != len(evs) {
		t.Fatalf("%d events (status says %d) for %d curve entries, want the curve plus done", len(evs), final.Events, len(curve))
	}
	for i, c := range curve {
		ev := evs[i]
		if ev.Seq != i || ev.P != c.P || ev.H != c.H || ev.Phase != c.Phase || ev.ElapsedMs != float64(c.ElapsedNs)/1e6 {
			t.Fatalf("event %d = %+v, want curve entry %+v", i, ev, c)
		}
	}
	done := evs[len(evs)-1]
	if done.Type != "done" || done.Seq != len(curve) {
		t.Fatalf("last event = %+v, want done at seq %d", done, len(curve))
	}
	lastInc := -1
	for i, ev := range evs {
		if ev.Type == "incumbent" {
			lastInc = i
		}
	}
	if lastInc < 0 || evs[lastInc].P != final.Result.P || evs[lastInc].H != final.Result.HeteroAfter {
		t.Fatalf("last incumbent %+v, want the result's (p=%d, H=%g)", evs[lastInc], final.Result.P, final.Result.HeteroAfter)
	}
	if past := getEvents(t, h, st.ID, "?since=1000000"); len(past) != 1 || past[0] != done {
		t.Fatalf("since=1000000 returned %+v, want exactly %+v", past, done)
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
	// Frames are flushed as they are logged, not held until the stream ends.
	if _, cur := getJob(t, h, st.ID); cur.State != "running" {
		t.Fatalf("watcher B's first frame arrived with the job %s, want running", cur.State)
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
// valid done state. The warm result must NOT be served under its
// fingerprint: a later sync POST /v1/solve with the same body runs cold.
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

// TestJobAnswersHaveOneHome: the result store is the only place an answer
// lives. A cold job, its identical resubmit (born done from the store) and
// warm resubmits hold no copies: their statuses and the warm seeds read the
// stored assignments themselves, the store is charged once per distinct
// answer, a job record's charge does not grow with its answer's area count,
// and the snapshot writes each assignment once.
func TestJobAnswersHaveOneHome(t *testing.T) {
	sv, h, _ := newRecoveryService(t, t.TempDir())
	waitRecovered(t, sv)
	s := sv.s
	// status is the result a job's status serves, read in process.
	status := func(id string) *SolveResponse {
		t.Helper()
		j, ok := s.jobs.Get(id)
		if !ok {
			t.Fatalf("job %s not tracked", id)
		}
		resp := s.jobStatus(j, true).Result
		if resp == nil || len(resp.Assignment) == 0 {
			t.Fatalf("job %s serves no assignment", id)
		}
		return resp
	}
	// same reports whether two assignments share one backing array.
	same := func(a, b []int) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
	used := func() int64 { return s.jobs.StoreStats().UsedBytes }
	submit := func(body string) JobStatus {
		t.Helper()
		rec, st := postJob(t, h, body)
		if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
			t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
		}
		if fin := waitJobTerminal(t, h, st.ID); fin.State != "done" {
			t.Fatalf("job = %+v", fin)
		}
		return st
	}

	cold := submit(jobBody)
	u := used()
	again := submit(jobBody)
	if again.State != "done" {
		t.Fatalf("identical resubmit = %+v, want born done", again)
	}
	smallCharge := used() - u
	coldAns := status(cold.ID)
	if !same(coldAns.Assignment, status(again.ID).Assignment) {
		t.Fatal("the identical resubmit's status holds a copy of the cold answer")
	}
	// The warm seed on offer is the stored assignment itself.
	perturbed := `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 21000","options":{"seed":5}}`
	warmFP, dsKey := solveIdentity(t, perturbed)
	seed, from := s.warmSeed(dsKey, warmFP)
	if from != again.ID || !same(seed, coldAns.Assignment) {
		t.Fatalf("warm seed from %q is not the stored cold answer", from)
	}
	warm := submit(perturbed)
	if warm.WarmFrom != again.ID {
		t.Fatalf("warm_from = %q, want %s", warm.WarmFrom, again.ID)
	}
	warmAns := status(warm.ID)
	if seed, from := s.warmSeed(dsKey, "other"); from != warm.ID || !same(seed, warmAns.Assignment) {
		t.Fatalf("warm seed after the warm job comes from %q, want the warm job's stored answer", from)
	}
	// A second warm job takes over the dataset's warm seed, so the first
	// warm answer is named by no warm seed.
	warm2 := submit(`{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 22000","options":{"seed":5}}`)
	if warm2.WarmFrom != warm.ID {
		t.Fatalf("second warm_from = %q, want %s", warm2.WarmFrom, warm.ID)
	}
	warm2Ans := status(warm2.ID)

	// A sync answer on a dataset ten times larger, then a job born done on
	// it: its record is charged what the small one's was.
	big := `{"named":"1k","constraints":"SUM(TOTALPOP) >= 20000","options":{"seed":5}}`
	if rec := postSolve(h, big, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("sync solve = %d: %s", rec.Code, rec.Body.String())
	}
	u = used()
	bigJob := submit(big)
	bigCharge := used() - u
	bigAns := status(bigJob.ID)
	if len(bigAns.Assignment) < 5*len(coldAns.Assignment) || bigCharge != smallCharge {
		t.Errorf("born-done records charged %d B on %d areas and %d B on %d areas, want equal charges",
			smallCharge, len(coldAns.Assignment), bigCharge, len(bigAns.Assignment))
	}

	// The store is charged once per distinct answer.
	answers := []*SolveResponse{coldAns, warmAns, warm2Ans, bigAns}
	var want int64
	for _, a := range answers {
		want += responseCost(a)
	}
	if st := s.resCache.Stats(); st.Entries != len(answers) || st.CostBytes != want {
		t.Errorf("result store holds %d entries costing %d B, want %d answers costing %d B",
			st.Entries, st.CostBytes, len(answers), want)
	}

	// The snapshot writes each assignment once, as a result entry; warm
	// seeds name theirs. The first warm answer, named by no warm seed, is
	// not written.
	s.saveSnapshot()
	data := durable.ReadSnapshot(s.snapshotPath(), durable.Metrics{})
	coldFP, _ := solveIdentity(t, jobBody)
	bigFP, _ := solveIdentity(t, big)
	written := map[string]*SolveResponse{}
	for _, r := range data.Results {
		var resp SolveResponse
		if err := json.Unmarshal(r.Body, &resp); err != nil {
			t.Fatal(err)
		}
		if written[r.Fingerprint] != nil {
			t.Errorf("answer %q written twice", r.Fingerprint)
		}
		written[r.Fingerprint] = &resp
	}
	wantWritten := map[string]*SolveResponse{
		coldFP:                 coldAns,
		jobResultKey(warm2.ID): warm2Ans,
		bigFP:                  bigAns,
	}
	if len(written) != len(wantWritten) {
		t.Errorf("snapshot wrote %d answers, want %d", len(written), len(wantWritten))
	}
	for k, a := range wantWritten {
		if w := written[k]; w == nil || !slices.Equal(w.Assignment, a.Assignment) {
			t.Errorf("snapshot lacks the answer under %q", k)
		}
	}
	if len(data.WarmSeeds) != 2 {
		t.Fatalf("snapshot wrote %d warm seeds, want one per dataset", len(data.WarmSeeds))
	}
	for _, ws := range data.WarmSeeds {
		if written[ws.ResultKey] == nil {
			t.Errorf("warm seed for job %s names %q, which the snapshot lacks", ws.JobID, ws.ResultKey)
		}
	}
}

// TestJobAnswerEvicted: once the result store evicts a done job's answer,
// the job keeps its state, p and H; only its result is gone, and it seeds
// no warm start.
func TestJobAnswerEvicted(t *testing.T) {
	other := `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000","options":{"seed":6}}`
	// Size the store to hold one answer: solve both requests once on a probe
	// service to learn their costs.
	probe, _ := newServingHandler(t, Config{})
	var bound int64
	for _, body := range []string{jobBody, other} {
		rec := postSolve(probe, body, "", nil)
		var resp SolveResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			t.Fatalf("probe solve = %d: %s", rec.Code, rec.Body.String())
		}
		bound = max(bound, responseCost(&resp))
	}
	h, reg := newServingHandler(t, Config{ResultCacheBytes: bound})
	_, st := postJob(t, h, jobBody)
	done := waitJobTerminal(t, h, st.ID)
	if done.State != "done" || done.Result == nil {
		t.Fatalf("job = %+v, want done with its result", done)
	}
	if rec := postSolve(h, other, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("evicting solve = %d: %s", rec.Code, rec.Body.String())
	}
	code, after := getJob(t, h, st.ID)
	if code != http.StatusOK || after.State != "done" || after.P != done.P || after.H != done.H {
		t.Fatalf("job after its answer left the store = %d %+v, want done with p=%d h=%g", code, after, done.P, done.H)
	}
	if after.Result != nil {
		t.Fatal("job still serves a result the store evicted")
	}
	rec, warm := postJob(t, h, `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 21000","options":{"seed":5}}`)
	if rec.Code != http.StatusAccepted || warm.WarmFrom != "" || counterValue(reg, "emp_jobs_warmstart_total") != 0 {
		t.Fatalf("submit after eviction = %d warm_from %q: an evicted answer must seed nothing", rec.Code, warm.WarmFrom)
	}
	waitJobTerminal(t, h, warm.ID)
}
