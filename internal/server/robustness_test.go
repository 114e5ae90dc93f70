package server

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"emp/internal/fault"
	"emp/internal/obs"
)

// getJSON fires one GET through the handler and decodes the body.
func getStatus(t *testing.T, h http.Handler, path string) (int, map[string]string) {
	t.Helper()
	rec, raw := doJSON(t, h, http.MethodGet, path, "")
	out := make(map[string]string, len(raw))
	for k, v := range raw {
		var s string
		if err := json.Unmarshal(v, &s); err == nil {
			out[k] = s
		}
	}
	return rec.Code, out
}

// TestReadinessDrainFlip pins the drain contract: /readyz answers 200 while
// serving, flips to 503 the instant SetDraining(true) is called (before the
// listener closes, so load balancers observe the drain), and /healthz keeps
// answering 200 throughout — a draining instance is alive, just not ready.
func TestReadinessDrainFlip(t *testing.T) {
	svc := New(Config{Registry: obs.New()})
	h := svc.Handler()

	if code, body := getStatus(t, h, "/v1/readyz"); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("GET /v1/readyz before drain = %d %v, want 200 ready", code, body)
	}

	svc.SetDraining(true)
	if !svc.Draining() {
		t.Fatal("Draining() = false after SetDraining(true)")
	}
	if code, body := getStatus(t, h, "/v1/readyz"); code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Errorf("GET /v1/readyz mid-drain = %d %v, want 503 draining", code, body)
	}
	// Liveness is unaffected: restarting a draining instance would defeat
	// the drain.
	if code, body := getStatus(t, h, "/v1/healthz"); code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("GET /v1/healthz mid-drain = %d %v, want 200 ok", code, body)
	}

	svc.SetDraining(false)
	if code, _ := getStatus(t, h, "/v1/readyz"); code != http.StatusOK {
		t.Errorf("GET /v1/readyz after drain cleared = %d, want 200", code)
	}
}

// TestSolveTimeoutValidation: a negative timeout_ms is a client error, and a
// zero or over-ceiling one silently clamps to the server maximum rather than
// erroring — the ceiling is an operator policy, not a client contract.
func TestSolveTimeoutValidation(t *testing.T) {
	h, _ := newServingHandler(t, Config{})
	rec := postSolve(h, `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000","timeout_ms":-5}`, "", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("timeout_ms=-5 status = %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if got := decodeError(t, rec).Code; got != "bad_request" {
		t.Errorf("error code = %q, want bad_request", got)
	}
}

// TestSolveTimeoutClampShared: timeout_ms 0 (absent) and any value at or
// above the ceiling clamp to the same effective deadline, so the two
// requests share one result-cache entry — the clamped value, not the raw
// one, is what the fingerprint sees.
func TestSolveTimeoutClampShared(t *testing.T) {
	h, reg := newServingHandler(t, Config{MaxSolveTimeout: time.Minute})
	base := `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000","options":{"seed":5,"skip_local_search":true}`
	if rec := postSolve(h, base+`}`, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := postSolve(h, base+`,"timeout_ms":3600000}`, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if hits := counterValue(reg, "emp_result_cache_hits_total"); hits != 1 {
		t.Errorf("result cache hits = %d, want 1 (0 and over-ceiling clamp to the same deadline)", hits)
	}
	// An explicit below-ceiling timeout is a distinct deadline: its own entry.
	if rec := postSolve(h, base+`,"timeout_ms":59000}`, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if hits := counterValue(reg, "emp_result_cache_hits_total"); hits != 1 {
		t.Errorf("result cache hits = %d after a distinct timeout, want still 1", hits)
	}
}

// TestSolveDeadline504: a budget too tight to construct any incumbent is a
// 504 with the deadline_exceeded error code — not a 500, not a hang.
func TestSolveDeadline504(t *testing.T) {
	h, _ := newServingHandler(t, Config{})
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "fact.construct.sweep", Kind: fault.KindDelay, Delay: 20 * time.Millisecond, Times: 1 << 30},
	}})
	defer fault.Enable(nil)
	rec := postSolve(h, `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000","timeout_ms":60}`, "", nil)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if got := decodeError(t, rec).Code; got != "deadline_exceeded" {
		t.Errorf("error code = %q, want deadline_exceeded", got)
	}
}

// TestSolveDegradedCachedByteIdentical: a deadline landing mid-search yields
// a 200 with degraded=true and warnings — and that response must survive the
// result cache intact: the repeat request (faults disarmed, same pinned
// request id) is served from cache byte-identical, warnings and flag
// included. A cache that dropped Warnings or Degraded would misreport a
// best-effort answer as a clean one.
func TestSolveDegradedCachedByteIdentical(t *testing.T) {
	h, reg := newServingHandler(t, Config{})
	body := `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000","timeout_ms":500,"options":{"seed":4}}`

	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "tabu.epoch", Kind: fault.KindDelay, Delay: 50 * time.Millisecond, Times: 1 << 30},
	}})
	cold := postSolve(h, body, "rid-degraded", nil)
	fault.Enable(nil)
	if cold.Code != http.StatusOK {
		t.Fatalf("degraded solve status = %d, want 200: %s", cold.Code, cold.Body.String())
	}
	var resp SolveResponse
	if err := json.Unmarshal(cold.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatalf("degraded = false in %s", cold.Body.String())
	}
	if len(resp.Warnings) == 0 {
		t.Fatalf("degraded response carries no warnings: %s", cold.Body.String())
	}
	if resp.P < 1 {
		t.Fatalf("degraded response has no partition: p = %d", resp.P)
	}

	// Faults disarmed: the same request is answered from the result cache —
	// byte-identical, so Degraded and Warnings provably survived caching.
	hot := postSolve(h, body, "rid-degraded", nil)
	if hot.Code != http.StatusOK {
		t.Fatalf("cached status = %d: %s", hot.Code, hot.Body.String())
	}
	if hot.Body.String() != cold.Body.String() {
		t.Fatalf("cached degraded response is not byte-identical:\ncold: %s\nhot:  %s",
			cold.Body.String(), hot.Body.String())
	}
	if hits := counterValue(reg, "emp_result_cache_hits_total"); hits != 1 {
		t.Errorf("result cache hits = %d, want 1", hits)
	}
}

// TestSolveDatasetGenerationRetry: a transient failure injected into dataset
// generation is retried behind the flight, invisibly to the client.
func TestSolveDatasetGenerationRetry(t *testing.T) {
	h, _ := newServingHandler(t, Config{})
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "census.generate", Kind: fault.KindError, Times: 1},
	}})
	defer fault.Enable(nil)
	rec := postSolve(h, `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000","options":{"seed":6,"skip_local_search":true}}`, "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (transient generation failure must be retried): %s",
			rec.Code, rec.Body.String())
	}
}
