// Package obs is the solver's zero-dependency telemetry layer: atomic
// counters and gauges, latency histograms timed by spans, a process-wide
// registry rendered as Prometheus text, and a pluggable Sink receiving a
// structured JSONL event stream (see docs/OBSERVABILITY.md for the
// catalogue).
//
// The design is allocation-conscious and safe to leave wired into hot paths:
//
//   - Counter/Gauge/Histogram methods are nil-receiver safe, so packages keep
//     plain `*obs.Counter` fields that stay nil until telemetry is bound;
//     the "absent" cost is one predictable branch.
//   - Every mutation is guarded by the owning registry's enabled flag (one
//     atomic bool load), so a bound-but-disabled registry costs two loads
//     and no stores.
//   - Solver hot loops do not call obs at all per candidate: they accumulate
//     plain ints locally (see tabu.Counters, region.PartitionStats) and
//     flush once per run/phase with Counter.Add. The per-event sink is only
//     touched by span ends and explicit Emit calls, never by counters.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a named collection of metrics sharing one enabled flag and one
// event sink. The zero value is not usable; call New. Metric registration
// takes a lock; metric updates are lock-free.
type Registry struct {
	enabled atomic.Bool
	sink    atomic.Pointer[sinkBox]

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string // metric family -> help text
	names      []string          // registration order, for stable iteration
}

// sinkBox wraps the Sink interface so atomic.Pointer works regardless of the
// concrete sink type.
type sinkBox struct{ s Sink }

// New returns an empty, disabled registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		help:       make(map[string]string),
	}
}

// def is the process-wide registry used by the CLIs and the HTTP service.
var def = New()

// Default returns the process-wide registry. It starts disabled; servers and
// benchmark harnesses enable it explicitly.
func Default() *Registry { return def }

// SetEnabled turns metric collection on or off. Disabled registries drop
// every update and every event at the cost of one atomic load.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether the registry is collecting.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// SetSink installs the event sink (nil removes it). Span ends and Emit calls
// stream Events to the sink while the registry is enabled.
func (r *Registry) SetSink(s Sink) {
	if s == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(&sinkBox{s: s})
}

// HasSink reports whether a sink is installed; emitters that must build
// event payloads can use it to skip the work entirely.
func (r *Registry) HasSink() bool { return r != nil && r.sink.Load() != nil }

// Sink returns the installed sink (nil when none). Callers use it to compose
// fan-outs around an already-wired registry without owning the original.
func (r *Registry) Sink() Sink {
	if r == nil {
		return nil
	}
	box := r.sink.Load()
	if box == nil {
		return nil
	}
	return box.s
}

// Emit sends an event to the sink, stamping the time when unset. It is a
// no-op when the registry is disabled or has no sink.
func (r *Registry) Emit(e Event) {
	if r == nil || !r.enabled.Load() {
		return
	}
	box := r.sink.Load()
	if box == nil {
		return
	}
	if e.TimeUnixNano == 0 {
		e.TimeUnixNano = time.Now().UnixNano()
	}
	if e.TS == "" {
		e.TS = time.Unix(0, e.TimeUnixNano).UTC().Format(time.RFC3339Nano)
	}
	box.s.Emit(e)
}

// Counter returns the registered counter, creating it on first use. The name
// may carry constant Prometheus labels (`emp_x_total{path="/solve"}`); the
// help text describes the metric family and the first non-empty one wins.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, on: &r.enabled}
	r.counters[name] = c
	r.register(familyOf(name), name, help)
	return c
}

// Gauge returns the registered gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, on: &r.enabled}
	r.gauges[name] = g
	r.register(familyOf(name), name, help)
	return g
}

// register records help text and registration order under r.mu.
func (r *Registry) register(family, name, help string) {
	if r.help[family] == "" && help != "" {
		r.help[family] = help
	}
	r.names = append(r.names, name)
}

// Counter is a monotonically increasing metric. All methods are safe on a
// nil receiver (no-op / zero), so holders need no wiring checks.
type Counter struct {
	name string
	on   *atomic.Bool
	v    atomic.Int64
}

// Add increments the counter by n when the owning registry is enabled.
func (c *Counter) Add(n int64) {
	if c == nil || !c.on.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the registered metric name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is a metric that can go up and down (in-flight requests, pool
// sizes). Nil-receiver safe like Counter.
type Gauge struct {
	name string
	on   *atomic.Bool
	v    atomic.Int64
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil || !g.on.Load() {
		return
	}
	g.v.Add(n)
}

// Set forces the gauge to v.
func (g *Gauge) Set(v int64) {
	if g == nil || !g.on.Load() {
		return
	}
	g.v.Store(v)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Span is an in-flight measurement on one histogram. It is a value type:
// starting an identity-free span allocates nothing; StartCtx spans
// additionally carry the trace/span/parent identity threaded through the
// context.
type Span struct {
	h      *Histogram
	t0     time.Time
	sc     SpanContext
	parent SpanID
}

// Context returns the span's identity (zero for identity-free spans).
func (s Span) Context() SpanContext { return s.sc }

// End closes the span and returns the measured duration, so callers can use
// one code path for both timing needs. When the histogram is bound and
// enabled, End records the duration and emits one "span" event, stamped with
// trace_id/span_id/parent_id when the span has them.
func (s Span) End() time.Duration {
	d := time.Since(s.t0)
	h := s.h
	if h == nil || !h.reg.enabled.Load() {
		return d
	}
	h.Observe(d)
	e := Event{Kind: "span", Name: h.name, DurationNs: d.Nanoseconds()}
	if s.sc.IsValid() {
		e.TraceID, e.SpanID = s.sc.Trace.String(), s.sc.Span.String()
		if s.parent.IsValid() {
			e.ParentID = s.parent.String()
		}
	}
	h.reg.Emit(e)
	return d
}

// familyOf strips a constant-label suffix from a metric name:
// `emp_x_total{path="/solve"}` -> `emp_x_total`.
func familyOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i]
		}
	}
	return name
}
