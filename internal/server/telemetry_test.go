package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"emp/internal/obs"
	"emp/internal/obswire"
)

func TestSolveBodyTooLarge(t *testing.T) {
	h := NewHandler(Config{Registry: obs.New(), MaxBodyBytes: 256})
	body := `{"named":"1k","constraints":"SUM(TOTALPOP) >= 1","junk":"` +
		strings.Repeat("x", 1024) + `"}`
	rec, _ := doJSON(t, h, http.MethodPost, "/v1/solve", body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", rec.Code, rec.Body.String())
	}
	detail := decodeError(t, rec)
	if detail.Code != "payload_too_large" {
		t.Errorf("error code = %q, want payload_too_large", detail.Code)
	}
	if !strings.Contains(detail.Message, "256") {
		t.Errorf("error should name the limit: %s", detail.Message)
	}
}

func TestMethodNotAllowedHeaders(t *testing.T) {
	h := NewHandler(Config{Registry: obs.New()})
	cases := []struct {
		method, route, allow string
	}{
		{http.MethodGet, "/solve", "POST"},
		{http.MethodDelete, "/solve", "POST"},
		{http.MethodPost, "/datasets", "GET"},
		{http.MethodPost, "/metrics", "GET"},
	}
	for _, tc := range cases {
		t.Run(tc.method+" "+tc.route, func(t *testing.T) {
			rec, _ := doJSON(t, h, tc.method, "/v1"+tc.route, "")
			if rec.Code != http.StatusMethodNotAllowed {
				t.Fatalf("status = %d, want 405", rec.Code)
			}
			if allow := rec.Header().Get("Allow"); !strings.Contains(allow, tc.allow) {
				t.Errorf("Allow = %q, want %q", allow, tc.allow)
			}
			if tc.route != "/metrics" { // /metrics serves text, not the JSON error envelope
				detail := decodeError(t, rec)
				if detail.Code != "method_not_allowed" {
					t.Errorf("error code = %q, want method_not_allowed", detail.Code)
				}
				if detail.RequestID == "" {
					t.Errorf("error body missing request_id: %s", rec.Body.String())
				}
			}
		})
	}
}

func TestRequestIDPropagation(t *testing.T) {
	h := NewHandler(Config{Registry: obs.New()})
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	req.Header.Set("X-Request-ID", "client-supplied-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "client-supplied-42" {
		t.Errorf("X-Request-ID = %q, want the client id echoed", got)
	}
	// Generated when absent.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Header().Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID generated")
	}
	// Error bodies carry the id too.
	req = httptest.NewRequest(http.MethodGet, "/v1/solve", nil)
	req.Header.Set("X-Request-ID", "err-77")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if detail := decodeError(t, rec); detail.RequestID != "err-77" {
		t.Errorf("error request_id = %q", detail.RequestID)
	}
}

func TestAccessLog(t *testing.T) {
	var logBuf bytes.Buffer
	h := NewHandler(Config{Registry: obs.New(), AccessLog: &logBuf})
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	req.Header.Set("X-Request-ID", "log-me")
	h.ServeHTTP(httptest.NewRecorder(), req)
	line := logBuf.String()
	for _, want := range []string{"GET", "/v1/healthz", " 200 ", "rid=log-me"} {
		if !strings.Contains(line, want) {
			t.Errorf("access log %q missing %q", line, want)
		}
	}
}

// parseMetrics reads Prometheus text back into a map of series name (with
// labels) to value, skipping comment lines.
func parseMetrics(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		var v float64
		if _, err := sscanFloat(line[i+1:], &v); err != nil {
			t.Fatalf("bad value in metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func sscanFloat(s string, v *float64) (int, error) {
	n, err := json.Number(s).Float64()
	if err != nil {
		return 0, err
	}
	*v = n
	return 1, nil
}

func TestMetricsAfterSolve(t *testing.T) {
	reg := obs.New()
	obswire.Enable(reg)
	defer obswire.Enable(nil)
	h := NewHandler(Config{Registry: reg})

	body := `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000","options":{"seed":1}}`
	rec, _ := doJSON(t, h, http.MethodPost, "/v1/solve", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("solve status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.RequestID == "" {
		t.Error("solve response missing request_id")
	}
	if resp.Solver.CandidateEvals <= 0 {
		t.Errorf("solver_stats.candidate_evals = %d, want > 0", resp.Solver.CandidateEvals)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	m := parseMetrics(t, rec.Body.String())

	if m["emp_solve_total"] < 1 {
		t.Errorf("emp_solve_total = %v, want >= 1", m["emp_solve_total"])
	}
	for _, phase := range []string{"feasibility", "construction", "local_search"} {
		name := `emp_solve_phase_duration_seconds_count{phase="` + phase + `"}`
		if m[name] < 1 {
			t.Errorf("%s = %v, want >= 1", name, m[name])
		}
	}
	for _, name := range []string{
		"emp_tabu_candidate_evals_total",
		"emp_tabu_heap_pushes_total",
		"emp_tabu_heap_pops_total",
		`emp_tabu_runs_total{impl="kernel"}`,
		"emp_region_kernel_queries_total",
	} {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}
	if _, ok := m[`emp_http_requests_total{path="/solve",code="200"}`]; !ok {
		t.Error("missing HTTP request counter for /solve")
	}
	if _, ok := m["emp_http_in_flight"]; !ok {
		t.Error("missing emp_http_in_flight gauge")
	}
}

// TestSolveEventSink checks the JSONL trace path end to end: a registry with
// a memory sink attached records one "solve" event per successful solve.
func TestSolveEventSink(t *testing.T) {
	reg := obs.New()
	sink := &obs.MemorySink{}
	reg.SetSink(sink)
	obswire.Enable(reg)
	defer obswire.Enable(nil)
	h := NewHandler(Config{Registry: reg})

	body := `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000","options":{"seed":1,"skip_local_search":true}}`
	rec, _ := doJSON(t, h, http.MethodPost, "/v1/solve", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("solve status = %d: %s", rec.Code, rec.Body.String())
	}
	var solves int
	for _, e := range sink.Events() {
		if e.Kind == "solve" {
			solves++
			if e.Fields["p"] <= 0 {
				t.Errorf("solve event p = %v", e.Fields["p"])
			}
		}
	}
	if solves != 1 {
		t.Errorf("got %d solve events, want 1", solves)
	}
}
