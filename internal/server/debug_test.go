package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"emp/internal/census"
	"emp/internal/fault"
	"emp/internal/flight"
	"emp/internal/obs"
	"emp/internal/obswire"
)

// inlineMultiComponentBody builds a POST /v1/solve body embedding a generated
// 3-component dataset, so the solve takes the sharded path.
func inlineMultiComponentBody(t *testing.T) string {
	t.Helper()
	ds, err := census.Generate(census.Options{Name: "3comp", Areas: 360, States: 3, Components: 3, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	var dsBuf bytes.Buffer
	if err := ds.WriteJSON(&dsBuf); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]interface{}{
		"dataset":     json.RawMessage(dsBuf.Bytes()),
		"constraints": "SUM(TOTALPOP) >= 25000",
		"options":     map[string]interface{}{"seed": 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestTraceEndToEnd is the tracing acceptance test: one POST /v1/solve on a
// 3-component dataset yields a traceparent response header whose trace id
// resolves on /v1/debug/trace/{id} to a span tree (request -> solve ->
// per-shard sub-solves -> search spans, all one trace) and a convergence
// curve whose final (p, H) equals the response's.
func TestTraceEndToEnd(t *testing.T) {
	reg := obs.New()
	obswire.Enable(reg)
	defer obswire.Enable(nil)
	h := NewHandler(Config{Registry: reg})

	req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(inlineMultiComponentBody(t)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("solve status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}

	tp := rec.Header().Get("traceparent")
	sc, err := obs.ParseTraceparent(tp)
	if err != nil {
		t.Fatalf("response traceparent %q: %v", tp, err)
	}
	traceID := sc.Trace.String()

	dumpRec := httptest.NewRecorder()
	h.ServeHTTP(dumpRec, httptest.NewRequest(http.MethodGet, "/v1/debug/trace/"+traceID, nil))
	if dumpRec.Code != http.StatusOK {
		t.Fatalf("debug trace status = %d: %s", dumpRec.Code, dumpRec.Body.String())
	}
	var dump flight.TraceDump
	if err := json.Unmarshal(dumpRec.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.TraceID != traceID || dump.InFlight {
		t.Fatalf("dump header = %+v, want finished trace %s", dump, traceID)
	}
	for _, s := range dump.Spans {
		if s.TraceID != traceID {
			t.Fatalf("span %q carries trace %s, want %s", s.Name, s.TraceID, traceID)
		}
	}
	names := make(map[string]int)
	for _, s := range dump.Spans {
		names[s.Name]++
	}
	if names["emp_solve_duration"] != 1 {
		t.Errorf("solve root spans = %d, want 1 (names: %v)", names["emp_solve_duration"], names)
	}
	if names["emp_shard_solve_duration"] != 3 {
		t.Errorf("sub-solve spans = %d, want one per component", names["emp_shard_solve_duration"])
	}
	if names["emp_tabu_improve_duration"] != 3 {
		t.Errorf("search spans = %d, want one per sub-solve", names["emp_tabu_improve_duration"])
	}
	if len(dump.Tree) != 1 || !strings.HasPrefix(dump.Tree[0].Name, "emp_request_duration") {
		t.Fatalf("tree roots = %+v, want the single request span", dump.Tree)
	}

	if len(dump.Curve) == 0 {
		t.Fatal("convergence curve is empty")
	}
	final := dump.Curve[len(dump.Curve)-1]
	if final.Phase != "done" {
		t.Errorf("final curve phase = %q, want done", final.Phase)
	}
	if final.P != resp.P || final.H != resp.HeteroAfter {
		t.Errorf("final curve (p=%d, H=%g) != response (p=%d, H=%g)",
			final.P, final.H, resp.P, resp.HeteroAfter)
	}

	// The request-latency histogram is exposed as well-formed Prometheus
	// series for the route.
	metRec := httptest.NewRecorder()
	h.ServeHTTP(metRec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	m := parseMetrics(t, metRec.Body.String())
	if m[`emp_request_duration_seconds_bucket{path="/solve",le="+Inf"}`] < 1 {
		t.Error("missing +Inf bucket for /solve request latency")
	}
	if m[`emp_request_duration_seconds_count{path="/solve"}`] < 1 {
		t.Error("missing request latency count for /solve")
	}
	if m[`emp_request_duration_seconds_sum{path="/solve"}`] <= 0 {
		t.Error("request latency sum not positive")
	}
	if m["emp_solve_duration_seconds_count"] < 1 {
		t.Error("missing solve duration histogram")
	}
	if m["emp_shard_duration_seconds_count"] < 3 {
		t.Error("missing shard duration histogram observations")
	}
}

// TestTraceparentPropagation: a valid incoming traceparent pins the trace id
// (the solve joins the caller's trace); a malformed one is ignored and a
// fresh trace is opened.
func TestTraceparentPropagation(t *testing.T) {
	h := NewHandler(Config{Registry: obs.New()})
	const incoming = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	req.Header.Set("traceparent", incoming)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	sc, err := obs.ParseTraceparent(rec.Header().Get("traceparent"))
	if err != nil {
		t.Fatalf("response traceparent: %v", err)
	}
	if sc.Trace.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id = %s, want the caller's", sc.Trace)
	}
	if sc.Span.String() == "00f067aa0ba902b7" {
		t.Error("span id not re-derived for the server span")
	}

	req = httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	req.Header.Set("traceparent", "00-garbage")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	sc, err = obs.ParseTraceparent(rec.Header().Get("traceparent"))
	if err != nil {
		t.Fatalf("response traceparent after malformed input: %v", err)
	}
	if sc.Trace.String() == "4bf92f3577b34da6a3ce929d0e0e4736" || !sc.IsValid() {
		t.Errorf("malformed traceparent not replaced with a fresh trace: %+v", sc)
	}
}

// TestDebugSolvesShowsThenClears: a solve held mid-search by an injected
// delay appears on /v1/debug/solves with its phase and incumbent, and the
// entry clears once the solve finishes (moving to the retained trace view).
func TestDebugSolvesShowsThenClears(t *testing.T) {
	h, _ := newServingHandler(t, Config{})
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "tabu.epoch", Kind: fault.KindDelay, Delay: 50 * time.Millisecond, Times: 1 << 30},
	}})
	defer fault.Enable(nil)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := postSolve(h, `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000","timeout_ms":2000,"options":{"seed":5}}`, "", nil)
		if rec.Code != http.StatusOK {
			t.Errorf("solve status = %d: %s", rec.Code, rec.Body.String())
		}
	}()

	type solvesView struct {
		Solves []flight.InflightSolve `json:"solves"`
	}
	getSolves := func() solvesView {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/solves", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("debug solves status = %d: %s", rec.Code, rec.Body.String())
		}
		var v solvesView
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("debug solves body %s: %v", rec.Body.String(), err)
		}
		return v
	}

	var seen flight.InflightSolve
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v := getSolves(); len(v.Solves) > 0 {
			seen = v.Solves[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("solve never appeared on /v1/debug/solves")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if seen.TraceID == "" || seen.Dataset != "1k" {
		t.Errorf("inflight row = %+v, want a trace id and dataset 1k", seen)
	}

	wg.Wait()
	if v := getSolves(); len(v.Solves) != 0 {
		t.Errorf("in-flight view not cleared after the solve: %+v", v.Solves)
	}
	// The finished solve stays reachable by trace id.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/trace/"+seen.TraceID, nil))
	if rec.Code != http.StatusOK {
		t.Errorf("finished trace %s not retained: %d", seen.TraceID, rec.Code)
	}
}

func TestDebugCacheView(t *testing.T) {
	h, _ := newServingHandler(t, Config{})
	body := `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000","options":{"seed":1,"skip_local_search":true}}`
	for i := 0; i < 2; i++ { // second request hits the result cache
		if rec := postSolve(h, body, "", nil); rec.Code != http.StatusOK {
			t.Fatalf("solve %d status = %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/cache", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("debug cache status = %d: %s", rec.Code, rec.Body.String())
	}
	var v struct {
		Dataset struct {
			Entries int     `json:"entries"`
			Hits    int64   `json:"hits"`
			HitRate float64 `json:"hit_rate"`
		} `json:"dataset_cache"`
		Result struct {
			Entries int   `json:"entries"`
			Hits    int64 `json:"hits"`
		} `json:"result_cache"`
		Flight flight.Stats `json:"flight_recorder"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("debug cache body %s: %v", rec.Body.String(), err)
	}
	if v.Dataset.Entries < 1 {
		t.Errorf("dataset cache entries = %d, want >= 1", v.Dataset.Entries)
	}
	if v.Result.Entries < 1 || v.Result.Hits < 1 {
		t.Errorf("result cache = %+v, want an entry and a hit", v.Result)
	}
	if v.Flight.BudgetBytes <= 0 || v.Flight.Retained < 1 {
		t.Errorf("flight recorder stats = %+v, want a budget and one retained solve", v.Flight)
	}
}

func TestDebugEndpointsMethodNotAllowed(t *testing.T) {
	h := NewHandler(Config{Registry: obs.New()})
	for _, path := range []string{"/v1/debug/solves", "/v1/debug/cache", "/v1/debug/trace/abc"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, rec.Code)
		}
	}
	// Unknown and malformed trace ids are clean 404/400s.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/trace/ffffffffffffffffffffffffffffffff", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown trace = %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/trace/", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty trace id = %d, want 400", rec.Code)
	}
}
