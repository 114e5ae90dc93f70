package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"emp/internal/obs"
)

// TestErrorEnvelopeMatrix is the exhaustive (method, path, failure) →
// envelope table: every error the surface can produce — wrong methods on
// every route, oversized and malformed bodies, unknown paths and ids, debug
// endpoints — speaks the one JSON envelope with the right status, stable
// code, and the caller's request id echoed back. No route is allowed a
// plain-text error.
func TestErrorEnvelopeMatrix(t *testing.T) {
	h := NewHandler(Config{Registry: obs.New(), MaxBodyBytes: 256})
	huge := `{"named":"1k","constraints":"` + strings.Repeat("x", 512) + `"}`
	cases := []struct {
		name         string
		method, path string
		body         string
		status       int
		code         string
		allow        string // non-empty: the 405 must carry this Allow header
	}{
		// Method guards.
		{"solve-get", http.MethodGet, "/v1/solve", "", http.StatusMethodNotAllowed, "method_not_allowed", ""},
		{"solve-delete", http.MethodDelete, "/v1/solve", "", http.StatusMethodNotAllowed, "method_not_allowed", ""},
		{"datasets-post", http.MethodPost, "/v1/datasets", "", http.StatusMethodNotAllowed, "method_not_allowed", ""},
		{"healthz-post", http.MethodPost, "/v1/healthz", "", http.StatusMethodNotAllowed, "method_not_allowed", "GET, HEAD"},
		{"readyz-post", http.MethodPost, "/v1/readyz", "", http.StatusMethodNotAllowed, "method_not_allowed", "GET, HEAD"},
		{"metrics-post", http.MethodPost, "/v1/metrics", "", http.StatusMethodNotAllowed, "method_not_allowed", "GET, HEAD"},
		{"jobs-put", http.MethodPut, "/v1/jobs", "", http.StatusMethodNotAllowed, "method_not_allowed", "GET, POST"},
		{"job-post", http.MethodPost, "/v1/jobs/deadbeef00000000", "", http.StatusNotFound, "not_found", ""},
		{"debug-solves-post", http.MethodPost, "/v1/debug/solves", "", http.StatusMethodNotAllowed, "method_not_allowed", ""},
		{"debug-cache-post", http.MethodPost, "/v1/debug/cache", "", http.StatusMethodNotAllowed, "method_not_allowed", ""},
		{"debug-trace-post", http.MethodPost, "/v1/debug/trace/abc", "", http.StatusMethodNotAllowed, "method_not_allowed", ""},
		// Body failures.
		{"solve-bad-json", http.MethodPost, "/v1/solve", `{`, http.StatusBadRequest, "bad_request", ""},
		{"solve-too-large", http.MethodPost, "/v1/solve", huge, http.StatusRequestEntityTooLarge, "payload_too_large", ""},
		{"jobs-bad-json", http.MethodPost, "/v1/jobs", `{`, http.StatusBadRequest, "bad_request", ""},
		{"jobs-too-large", http.MethodPost, "/v1/jobs", huge, http.StatusRequestEntityTooLarge, "payload_too_large", ""},
		{"jobs-no-source", http.MethodPost, "/v1/jobs", `{"constraints":"SUM(TOTALPOP) >= 1"}`, http.StatusBadRequest, "bad_request", ""},
		// Unknown paths and ids: the catch-all and the id lookups envelope too.
		{"unknown-root", http.MethodGet, "/nope", "", http.StatusNotFound, "not_found", ""},
		{"unknown-v1", http.MethodGet, "/v1/nope", "", http.StatusNotFound, "not_found", ""},
		{"v1-root", http.MethodGet, "/v1", "", http.StatusNotFound, "not_found", ""},
		// Bare (unversioned) spellings of the routes are unknown paths too.
		{"solve-bare-get", http.MethodGet, "/solve", "", http.StatusNotFound, "not_found", ""},
		{"solve-bare-post", http.MethodPost, "/solve", `{"named":"1k","constraints":"SUM(TOTALPOP) >= 1"}`, http.StatusNotFound, "not_found", ""},
		{"datasets-bare-get", http.MethodGet, "/datasets", "", http.StatusNotFound, "not_found", ""},
		{"healthz-bare-get", http.MethodGet, "/healthz", "", http.StatusNotFound, "not_found", ""},
		{"readyz-bare-post", http.MethodPost, "/readyz", "", http.StatusNotFound, "not_found", ""},
		{"metrics-bare-post", http.MethodPost, "/metrics", "", http.StatusNotFound, "not_found", ""},
		{"jobs-bare-alias", http.MethodGet, "/jobs", "", http.StatusNotFound, "not_found", ""},
		{"job-unknown", http.MethodGet, "/v1/jobs/deadbeef00000000", "", http.StatusNotFound, "not_found", ""},
		{"job-unknown-delete", http.MethodDelete, "/v1/jobs/deadbeef00000000", "", http.StatusNotFound, "not_found", ""},
		{"job-bad-subpath", http.MethodGet, "/v1/jobs/deadbeef00000000/bogus", "", http.StatusNotFound, "not_found", ""},
		{"job-empty-id", http.MethodGet, "/v1/jobs/", "", http.StatusNotFound, "not_found", ""},
		{"trace-unknown", http.MethodGet, "/v1/debug/trace/ffffffffffffffffffffffffffffffff", "", http.StatusNotFound, "not_found", ""},
		{"trace-empty", http.MethodGet, "/v1/debug/trace/", "", http.StatusBadRequest, "bad_request", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			req.Header.Set("X-Request-ID", "matrix-"+tc.name)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("%s %s = %d, want %d: %s", tc.method, tc.path, rec.Code, tc.status, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s %s content type = %q, want application/json", tc.method, tc.path, ct)
			}
			detail := decodeError(t, rec)
			if detail.Code != tc.code {
				t.Errorf("%s %s code = %q, want %q", tc.method, tc.path, detail.Code, tc.code)
			}
			if detail.RequestID != "matrix-"+tc.name {
				t.Errorf("%s %s request_id = %q, want the caller's", tc.method, tc.path, detail.RequestID)
			}
			if tc.allow != "" && rec.Header().Get("Allow") != tc.allow {
				t.Errorf("%s %s Allow = %q, want %q", tc.method, tc.path, rec.Header().Get("Allow"), tc.allow)
			}
		})
	}
}
