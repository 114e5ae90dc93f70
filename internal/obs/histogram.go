package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// DefBuckets is the default latency bucket layout: 1ms to 60s on a roughly
// 1-2.5-5 progression. Fourteen finite bounds plus the implicit +Inf keeps an
// Observe to a short linear scan over one cache line of bounds.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 60,
}

// Histogram is the one duration instrument: a fixed-bucket, lock-free
// latency histogram with a running max, rendered in the Prometheus text
// format as cumulative `_seconds_bucket{le=...}` series plus `_seconds_sum`
// and `_seconds_count`, and a `_seconds_max` gauge. Bucket bounds are fixed
// at registration; Observe is lock-free (one linear bound scan, three atomic
// adds and a max update). Nil-receiver safe like the other metric kinds.
//
// Observe only records. Callers that want the event stream as well open a
// span with Start / StartCtx, whose End records into the histogram and
// emits exactly one event.
type Histogram struct {
	name    string
	reg     *Registry
	bounds  []float64 // finite upper bounds, ascending
	buckets []atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
	maxNs   atomic.Int64
}

// Histogram returns the registered histogram, creating it on first use with
// the given finite bucket bounds (ascending seconds; nil means DefBuckets).
// Name it without a unit suffix (`emp_solve_phase_duration{phase="x"}`);
// the rendering appends `_seconds_bucket`/`_seconds_sum`/`_seconds_count`
// and `_seconds_max`. Bounds are fixed on first registration; later calls
// with different bounds get the original.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	h := &Histogram{
		name:    name,
		reg:     r,
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1), // last slot is +Inf
	}
	r.histograms[name] = h
	r.register(familyOf(name)+"_seconds", name, help)
	return h
}

// Observe records one duration; it emits no event.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil || !h.reg.enabled.Load() {
		return
	}
	ns := d.Nanoseconds()
	sec := float64(ns) / 1e9
	i := 0
	for i < len(h.bounds) && sec > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
	for {
		cur := h.maxNs.Load()
		if ns <= cur || h.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNs.Load())
}

// Cumulative returns the cumulative bucket counts aligned with the finite
// bounds plus a final +Inf entry equal to Count(). The snapshot is not
// atomic across buckets, but each bucket is monotone so the result is always
// a valid (possibly slightly stale) histogram.
func (h *Histogram) Cumulative() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.buckets))
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		out[i] = cum
	}
	return out
}

// Start opens an identity-free span on the histogram (for callers without a
// context). The start time carries Go's monotonic clock reading, so suspends
// and wall-clock adjustments cannot produce negative or inflated durations.
func (h *Histogram) Start() Span { return Span{h: h, t0: time.Now()} }

// StartCtx opens a span carrying trace identity derived from ctx: the span
// becomes a child of the context's current span (or the root of a fresh
// trace) and the returned context carries the new identity for nested spans.
// End records the duration into the histogram and emits one "span" event
// stamped with trace_id/span_id/parent_id. On a nil receiver (telemetry
// absent) or a disabled registry it returns a no-op span and the context
// unchanged, keeping the absent cost at one branch.
func (h *Histogram) StartCtx(ctx context.Context) (Span, context.Context) {
	if h == nil || !h.reg.enabled.Load() {
		return Span{t0: time.Now()}, ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sc, parent := childSpan(ctx)
	return Span{h: h, t0: time.Now(), sc: sc, parent: parent}, ContextWithSpan(ctx, sc)
}
