package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"emp/internal/obs"
)

// newServingHandler builds a handler on a private registry so the tests can
// assert exact cache/scheduler counter values without cross-test bleed.
func newServingHandler(t *testing.T, cfg Config) (http.Handler, *obs.Registry) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.New()
	}
	return NewHandler(cfg), cfg.Registry
}

// postSolve fires one POST /v1/solve through the handler, optionally pinning
// the request id and context.
func postSolve(h http.Handler, body, requestID string, ctx context.Context) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body))
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func counterValue(reg *obs.Registry, name string) int64 {
	return reg.Counter(name, "").Value()
}

// waitForCounter polls a registry counter until it reaches want, failing the
// test after a generous deadline. Used to sequence "the solve has started /
// stopped" against concurrent request goroutines.
func waitForCounter(t *testing.T, reg *obs.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for counterValue(reg, name) < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter %s stuck at %d, want >= %d", name, counterValue(reg, name), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSolveScaleValidation: scale outside (0,1) must be rejected with 400
// instead of silently solving the full dataset (the old behavior for
// scale >= 1), while 0 still means "full dataset".
func TestSolveScaleValidation(t *testing.T) {
	h, _ := newServingHandler(t, Config{})
	for _, scale := range []string{"1", "1.5", "-0.3", "2"} {
		body := `{"named":"1k","scale":` + scale + `,"constraints":"SUM(TOTALPOP) >= 20000"}`
		rec := postSolve(h, body, "", nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("scale %s: status = %d, want 400: %s", scale, rec.Code, rec.Body.String())
			continue
		}
		if !strings.Contains(rec.Body.String(), "scale must be in (0,1)") {
			t.Errorf("scale %s: unexpected error body %s", scale, rec.Body.String())
		}
	}
	// scale 0 = unset = full dataset; must not trip the validation.
	body := `{"named":"1k","constraints":"SUM(TOTALPOP) >= 20000",
		"options":{"seed":1,"iterations":1,"skip_local_search":true}}`
	rec := postSolve(h, body, "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("scale 0: status = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestSolveSeedNormalization: seed 0 and seed 1 are the same request — same
// dataset, same solver seed, same cache entry. Before the fix the dataset
// was generated with seed 1 but the solver ran with the raw 0.
func TestSolveSeedNormalization(t *testing.T) {
	h, reg := newServingHandler(t, Config{})
	zero := `{"named":"1k","scale":0.08,"constraints":"SUM(TOTALPOP) >= 25000",
		"options":{"iterations":1,"skip_local_search":true}}`
	one := `{"named":"1k","scale":0.08,"constraints":"SUM(TOTALPOP) >= 25000",
		"options":{"seed":1,"iterations":1,"skip_local_search":true}}`
	a := postSolve(h, zero, "rid-seed", nil)
	b := postSolve(h, one, "rid-seed", nil)
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("status = %d/%d: %s %s", a.Code, b.Code, a.Body.String(), b.Body.String())
	}
	if a.Body.String() != b.Body.String() {
		t.Errorf("seed 0 and seed 1 responses differ:\n%s\n%s", a.Body.String(), b.Body.String())
	}
	if got := counterValue(reg, "emp_result_cache_hits_total"); got != 1 {
		t.Errorf("result cache hits = %d, want 1 (seed 0 and 1 must share the entry)", got)
	}
}

// TestSolveResultCacheByteIdentical is the differential acceptance test: a
// cached response must be byte-identical to the uncached one for the same
// request (request id pinned via X-Request-ID so the only per-request field
// is equal too), and a later caller gets its own request id stamped on a
// copy without disturbing the cached entry.
func TestSolveResultCacheByteIdentical(t *testing.T) {
	h, reg := newServingHandler(t, Config{})
	body := `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000",
		"options":{"seed":3,"iterations":2}}`
	cold := postSolve(h, body, "rid-fixed", nil)
	hot := postSolve(h, body, "rid-fixed", nil)
	if cold.Code != http.StatusOK || hot.Code != http.StatusOK {
		t.Fatalf("status = %d/%d: %s %s", cold.Code, hot.Code, cold.Body.String(), hot.Body.String())
	}
	if cold.Body.String() != hot.Body.String() {
		t.Fatalf("cached response is not byte-identical:\ncold: %s\nhot:  %s",
			cold.Body.String(), hot.Body.String())
	}
	if hits := counterValue(reg, "emp_result_cache_hits_total"); hits != 1 {
		t.Errorf("result cache hits = %d, want 1", hits)
	}
	if misses := counterValue(reg, "emp_result_cache_misses_total"); misses != 1 {
		t.Errorf("result cache misses = %d, want 1", misses)
	}

	// A third caller with its own id: identical except the request_id.
	other := postSolve(h, body, "rid-other", nil)
	if other.Code != http.StatusOK {
		t.Fatalf("status = %d", other.Code)
	}
	want := strings.Replace(cold.Body.String(), `"request_id":"rid-fixed"`, `"request_id":"rid-other"`, 1)
	if other.Body.String() != want {
		t.Errorf("per-caller response should differ only in request_id:\n%s\n%s",
			cold.Body.String(), other.Body.String())
	}
	// And the cached entry must still serve the original id untouched.
	again := postSolve(h, body, "rid-fixed", nil)
	if again.Body.String() != cold.Body.String() {
		t.Error("cached entry was mutated by a caller's request id")
	}
}

// TestSolveDatasetCacheReuse: requests that differ only in solver options
// miss the result cache but share the generated dataset artifact.
func TestSolveDatasetCacheReuse(t *testing.T) {
	h, reg := newServingHandler(t, Config{})
	a := `{"named":"1k","scale":0.08,"constraints":"SUM(TOTALPOP) >= 25000",
		"options":{"seed":2,"iterations":1,"skip_local_search":true}}`
	b := `{"named":"1k","scale":0.08,"constraints":"SUM(TOTALPOP) >= 25000",
		"options":{"seed":2,"iterations":2,"skip_local_search":true}}`
	if rec := postSolve(h, a, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := postSolve(h, b, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if misses := counterValue(reg, "emp_dataset_cache_misses_total"); misses != 1 {
		t.Errorf("dataset cache misses = %d, want 1 (one generation)", misses)
	}
	if hits := counterValue(reg, "emp_dataset_cache_hits_total"); hits != 1 {
		t.Errorf("dataset cache hits = %d, want 1 (second request reuses)", hits)
	}
	if hits := counterValue(reg, "emp_result_cache_hits_total"); hits != 0 {
		t.Errorf("result cache hits = %d, want 0 (options differ)", hits)
	}
}

// TestSolveDedupConcurrent: N identical concurrent requests run ONE solve.
// Followers either join the in-flight solve (dedup) or, if they arrive
// after it stored, hit the result cache — between them the other N-1
// requests never execute their own solve, which the dataset-generation
// count pins exactly.
func TestSolveDedupConcurrent(t *testing.T) {
	h, reg := newServingHandler(t, Config{Workers: 1})
	body := `{"named":"1k","scale":0.3,"constraints":"SUM(TOTALPOP) >= 25000",
		"options":{"seed":4,"iterations":12}}`
	const n = 4
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = postSolve(h, body, "rid-dedup", nil)
		}(i)
	}
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status = %d: %s", i, rec.Code, rec.Body.String())
		}
		if rec.Body.String() != recs[0].Body.String() {
			t.Errorf("request %d: body differs from request 0", i)
		}
	}
	if gens := counterValue(reg, "emp_dataset_cache_misses_total"); gens != 1 {
		t.Errorf("dataset generations = %d, want 1 (one solve executed)", gens)
	}
	dedups := counterValue(reg, "emp_solve_dedup_total")
	hits := counterValue(reg, "emp_result_cache_hits_total")
	if dedups+hits != n-1 {
		t.Errorf("dedups (%d) + cache hits (%d) = %d, want %d", dedups, hits, dedups+hits, n-1)
	}
}

// TestSolveOverload429: with one worker busy and no queue, the next distinct
// request is shed immediately with 429 and a Retry-After hint.
func TestSolveOverload429(t *testing.T) {
	h, reg := newServingHandler(t, Config{Workers: 1, QueueDepth: -1})
	slow := `{"named":"1k","scale":0.3,"constraints":"SUM(TOTALPOP) >= 25000",
		"options":{"seed":5,"iterations":15}}`
	var wg sync.WaitGroup
	wg.Add(1)
	var slowRec *httptest.ResponseRecorder
	go func() {
		defer wg.Done()
		slowRec = postSolve(h, slow, "", nil)
	}()
	// The slow solve generates its dataset only after taking the worker
	// slot, so one generation means the slot is held.
	waitForCounter(t, reg, "emp_dataset_cache_misses_total", 1)

	other := `{"named":"1k","scale":0.05,"constraints":"SUM(TOTALPOP) >= 25000",
		"options":{"seed":6}}`
	rec := postSolve(h, other, "", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After header")
	}
	if rejected := counterValue(reg, "emp_solve_queue_rejected_total"); rejected != 1 {
		t.Errorf("rejected = %d, want 1", rejected)
	}
	wg.Wait()
	if slowRec.Code != http.StatusOK {
		t.Errorf("slow solve status = %d: %s", slowRec.Code, slowRec.Body.String())
	}
	// With the worker free again the shed request now succeeds.
	if rec := postSolve(h, other, "", nil); rec.Code != http.StatusOK {
		t.Errorf("retry status = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestSolveClientCancelMidSolve: a client disconnect mid-solve returns
// promptly with 499, stops the abandoned solve, and leaves the caches in a
// state where the identical request afterwards solves cleanly. Run under
// -race this also proves cancellation does not race with the shared caches.
func TestSolveClientCancelMidSolve(t *testing.T) {
	h, reg := newServingHandler(t, Config{})
	body := `{"named":"1k","scale":0.3,"constraints":"SUM(TOTALPOP) >= 25000",
		"options":{"seed":7,"iterations":40}}`
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postSolve(h, body, "", ctx) }()
	// Cancel once the solve is actually executing: its dataset is generated,
	// prepared and cached. (The miss counter moves before generation starts,
	// too early on a slow run such as one under -race.)
	deadline := time.Now().Add(30 * time.Second)
	for reg.Gauge("emp_dataset_cache_bytes", "").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dataset artifact never reached the cache")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	var rec *httptest.ResponseRecorder
	select {
	case rec = <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("cancelled request did not return promptly")
	}
	if rec.Code != statusClientClosed {
		t.Fatalf("status = %d, want %d: %s", rec.Code, statusClientClosed, rec.Body.String())
	}
	// The abandoned flight notices the cancellation and stops.
	waitForCounter(t, reg, "emp_solve_canceled_total", 1)
	if hits := counterValue(reg, "emp_result_cache_misses_total"); hits != 1 {
		t.Errorf("result cache misses = %d, want 1", hits)
	}

	// Same request again: fresh solve, clean result, dataset reused.
	rec = postSolve(h, body, "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-cancel status = %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"assignment":[`) {
		t.Errorf("post-cancel response missing assignment: %s", rec.Body.String())
	}
	if hits := counterValue(reg, "emp_dataset_cache_hits_total"); hits < 1 {
		t.Errorf("dataset cache hits = %d, want >= 1 (cancelled run's artifact reused)", hits)
	}
}
