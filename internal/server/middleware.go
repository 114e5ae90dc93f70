package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"emp/internal/obs"
)

// ctxKey namespaces the package's context values.
type ctxKey int

const requestIDKey ctxKey = iota

// RequestIDFrom returns the request id stored by the middleware, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// ridSeq disambiguates ids generated within the same nanosecond.
var ridSeq atomic.Uint64

// newRequestID returns a process-unique id: the wall clock in hex plus a
// sequence number. Not cryptographic — it is a correlation token for logs
// and error bodies, not a secret.
func newRequestID() string {
	return fmt.Sprintf("%x-%04x", time.Now().UnixNano(), ridSeq.Add(1)&0xffff)
}

// withRequestID tags the request with an id: an incoming X-Request-ID is
// honored (truncated to a sane length) so ids can propagate through
// frontends; otherwise one is generated. The id is echoed in the response
// header and stored in the context for error bodies and the access log.
func withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = newRequestID()
		} else if len(id) > 64 {
			id = id[:64]
		}
		w.Header().Set("X-Request-ID", id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
	})
}

// statusRecorder captures the response status and size for the access log
// and the HTTP metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the wrapped writer to http.ResponseController, so a
// streaming handler can flush through the recorder.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += int64(n)
	return n, err
}

// routeLabel maps the request path onto the fixed route set so metric label
// cardinality stays bounded no matter what clients probe. Labels name the
// route without its /v1 prefix (`/v1/solve` counts as "/solve"); every path
// outside /v1, bare spellings included, is "other".
func routeLabel(path string) string {
	path, ok := strings.CutPrefix(path, "/v1")
	switch {
	case !ok:
		return "other"
	case path == "/solve", path == "/datasets", path == "/healthz", path == "/readyz", path == "/metrics", path == "/jobs":
		return path
	case strings.HasPrefix(path, "/debug/"):
		return "/debug"
	case strings.HasPrefix(path, "/jobs/"):
		// /jobs/{id} and /jobs/{id}/events share the /jobs label: the id is
		// data, not route surface.
		return "/jobs"
	default:
		return "other"
	}
}

// instrument wraps the handler with the in-flight gauge, per-route request
// counters and latency histograms, the optional access log, and W3C
// trace-context propagation: a valid incoming `traceparent` header makes the
// request span a child of the caller's span (same trace id); otherwise the
// request starts a fresh trace. Either way the response echoes the request
// span's identity in `traceparent`, so clients can fetch
// `/v1/debug/trace/{trace_id}` for the solve they just ran.
func (s *service) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		route := routeLabel(r.URL.Path)
		ctx := r.Context()
		if tp := r.Header.Get("traceparent"); tp != "" {
			if sc, err := obs.ParseTraceparent(tp); err == nil {
				ctx = obs.ContextWithSpan(ctx, sc)
			}
		}
		// The request span is the trace root (or the caller's child): it
		// feeds the per-route emp_request_duration histogram and the access
		// log, and hands its identity down to the solve via the request
		// context.
		reqSpan, ctx := s.reg.Histogram(
			fmt.Sprintf("emp_request_duration{path=%q}", route),
			"HTTP request latency distribution by route.", nil,
		).StartCtx(ctx)
		if sc := reqSpan.Context(); sc.IsValid() {
			w.Header().Set("traceparent", sc.Traceparent())
		}
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r.WithContext(ctx))
		dur := reqSpan.End()
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		s.reg.Counter(
			fmt.Sprintf("emp_http_requests_total{path=%q,code=\"%d\"}", route, rec.status),
			"HTTP requests by route and status code.",
		).Inc()
		if s.accessLog != nil {
			fmt.Fprintf(s.accessLog, "%s %s %s %d %dB %s rid=%s\n",
				time.Now().UTC().Format(time.RFC3339), r.Method, r.URL.Path,
				rec.status, rec.bytes, dur.Truncate(time.Microsecond), RequestIDFrom(r.Context()))
		}
	})
}
