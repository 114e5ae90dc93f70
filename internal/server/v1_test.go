package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"emp/internal/obs"
)

// doV1 issues a request with a pinned X-Request-ID.
func doV1(h http.Handler, method, path, body, rid string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.Header.Set("X-Request-ID", rid)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestV1Routes: every GET endpoint answers under the /v1 prefix.
func TestV1Routes(t *testing.T) {
	h := NewHandler(Config{Registry: obs.New()})
	for _, path := range []string{"/v1/healthz", "/v1/readyz", "/v1/datasets", "/v1/metrics", "/v1/jobs"} {
		rec := doV1(h, http.MethodGet, path, "", "r")
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d", path, rec.Code)
		}
	}
}

// TestV1ErrorEnvelope: error paths on the versioned surface emit the same
// envelope, and unknown paths 404 through the mux (no envelope guarantee
// there — the mux writes text — so only the API handlers are asserted).
func TestV1ErrorEnvelope(t *testing.T) {
	h := NewHandler(Config{Registry: obs.New()})
	cases := []struct {
		method, path, body string
		status             int
		code               string
	}{
		{http.MethodGet, "/v1/solve", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{http.MethodPost, "/v1/solve", `{`, http.StatusBadRequest, "bad_request"},
		{http.MethodPost, "/v1/solve", `{"named":"1k","scale":0.05,"constraints":"SUM(TOTALPOP) >= 1000000000"}`,
			http.StatusUnprocessableEntity, "infeasible"},
		{http.MethodPost, "/v1/datasets", "", http.StatusMethodNotAllowed, "method_not_allowed"},
	}
	for _, tc := range cases {
		rec := doV1(h, tc.method, tc.path, tc.body, "env-1")
		if rec.Code != tc.status {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, rec.Code, tc.status)
			continue
		}
		detail := decodeError(t, rec)
		if detail.Code != tc.code {
			t.Errorf("%s %s error code = %q, want %q", tc.method, tc.path, detail.Code, tc.code)
		}
		if detail.RequestID != "env-1" {
			t.Errorf("%s %s error request_id = %q", tc.method, tc.path, detail.RequestID)
		}
	}
}

// TestV1RouteMetricsShared: /v1 routes count under their unprefixed label,
// and bare spellings, which 404, count as "other" so they never inflate a
// real route's series.
func TestV1RouteMetricsShared(t *testing.T) {
	for _, tc := range []struct{ path, want string }{
		{"/v1/solve", "/solve"},
		{"/v1/metrics", "/metrics"},
		{"/v1/healthz", "/healthz"},
		{"/v1/readyz", "/readyz"},
		{"/v1/datasets", "/datasets"},
		{"/v1/jobs", "/jobs"},
		{"/v1/jobs/0a1b2c3d4e5f6071", "/jobs"},
		{"/v1/jobs/0a1b2c3d4e5f6071/events", "/jobs"},
		{"/v1/debug/solves", "/debug"},
		{"/v1/unknown", "other"},
		{"/v1", "other"},
		{"/v1solve", "other"},
		{"/other", "other"},
		{"/solve", "other"},
		{"/datasets", "other"},
		{"/healthz", "other"},
		{"/readyz", "other"},
		{"/metrics", "other"},
		{"/jobs", "other"},
		{"/jobs/0a1b2c3d4e5f6071", "other"},
		{"/debug/solves", "other"},
	} {
		if got := routeLabel(tc.path); got != tc.want {
			t.Errorf("routeLabel(%q) = %q, want %q", tc.path, got, tc.want)
		}
	}
}

// TestV1SolveSharedCache: a repeat of a solve under another request id is a
// result-cache hit (the id is not part of the fingerprint).
func TestV1SolveSharedCache(t *testing.T) {
	reg := obs.New()
	h := NewHandler(Config{Registry: reg})
	body := `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000","options":{"seed":3,"skip_local_search":true}}`
	if rec := doV1(h, http.MethodPost, "/v1/solve", body, "a"); rec.Code != http.StatusOK {
		t.Fatalf("first solve = %d", rec.Code)
	}
	if rec := doV1(h, http.MethodPost, "/v1/solve", body, "b"); rec.Code != http.StatusOK {
		t.Fatalf("second solve = %d", rec.Code)
	}
	rec := doV1(h, http.MethodGet, "/v1/metrics", "", "m")
	m := parseMetrics(t, rec.Body.String())
	if m["emp_result_cache_hits_total"] < 1 {
		t.Errorf("result cache hits = %v, want >= 1 (the request id must not split the cache)", m["emp_result_cache_hits_total"])
	}
}
