package obs

import (
	"context"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	tp := sc.Traceparent()
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") {
		t.Fatalf("traceparent %q is not a 55-char version-00 header", tp)
	}
	got, err := ParseTraceparent(tp)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", tp, err)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v, want %+v", got, sc)
	}
}

// malformedTraceparents are headers W3C Trace Context calls invalid.
var malformedTraceparents = []string{
	"",
	"00-short",
	"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",      // unknown version
	"00-00000000000000000000000000000000-00f067aa0ba902b7-01",      // zero trace id
	"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",      // zero span id
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-tail", // wrong length
	"00-ZZf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",      // non-hex
	"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",      // bad separator
	"00-4bf92f3577b34da6a3ce929d0e0e4736 00f067aa0ba902b7-01",      // bad separator
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",      // non-hex flags
	"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",      // uppercase trace id
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01",      // uppercase parent id
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	for _, h := range malformedTraceparents {
		if _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted a malformed header", h)
		}
	}
}

// validTraceparent is the version-00 grammar with lowercase hex fields;
// ParseTraceparent additionally rejects all-zero ids.
var validTraceparent = regexp.MustCompile(`^00-[0-9a-f]{32}-[0-9a-f]{16}-[0-9a-f]{2}$`)

// FuzzParseTraceparent: the parser never panics, accepts only valid
// headers, and what it accepts renders back to the same version, trace id
// and parent id (the first 53 bytes; Traceparent always writes flags 01).
func FuzzParseTraceparent(f *testing.F) {
	for _, h := range malformedTraceparents {
		f.Add(h)
	}
	f.Add(SpanContext{Trace: NewTraceID(), Span: NewSpanID()}.Traceparent())
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	f.Fuzz(func(t *testing.T, h string) {
		sc, err := ParseTraceparent(h)
		if err != nil {
			if sc != (SpanContext{}) {
				t.Fatalf("ParseTraceparent(%q) failed but returned %+v", h, sc)
			}
			return
		}
		if !validTraceparent.MatchString(h) || !sc.IsValid() {
			t.Fatalf("ParseTraceparent accepted invalid header %q as %+v", h, sc)
		}
		if got := sc.Traceparent(); got[:53] != h[:53] {
			t.Fatalf("ParseTraceparent(%q) renders back as %q", h, got)
		}
	})
}

func TestIDUniqueness(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if !id.IsValid() {
			t.Fatal("NewTraceID produced the zero id")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %s", id)
		}
		seen[id] = true
	}
}

// TestStartCtxDerivesChildSpans: a root span started from a bare context
// opens a fresh trace; spans started from its context share the trace and
// point at it as parent — and every identified span End emits exactly one
// event carrying the identity.
func TestStartCtxDerivesChildSpans(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	sink := &MemorySink{}
	r.SetSink(sink)

	rootSpan, ctx := r.Histogram("emp_req", "h", nil).StartCtx(context.Background())
	root := rootSpan.Context()
	if !root.IsValid() {
		t.Fatal("root span has no identity on an enabled registry")
	}
	childSpan, cctx := r.Histogram("emp_phase_duration", "h", nil).StartCtx(ctx)
	child := childSpan.Context()
	if child.Trace != root.Trace {
		t.Fatalf("child trace %s != root trace %s", child.Trace, root.Trace)
	}
	if child.Span == root.Span {
		t.Fatal("child span id equals the root span id")
	}
	grandSpan, _ := r.Histogram("emp_leaf_duration", "h", nil).StartCtx(cctx)
	grandSpan.End()
	childSpan.End()
	rootSpan.End()

	evs := sink.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3 (one per identified span End): %+v", len(evs), evs)
	}
	byName := make(map[string]Event)
	for _, e := range evs {
		if e.Kind != "span" {
			t.Fatalf("unexpected event kind %q", e.Kind)
		}
		if e.TraceID != root.Trace.String() {
			t.Errorf("%s trace id = %q, want %q", e.Name, e.TraceID, root.Trace)
		}
		byName[e.Name] = e
	}
	if byName["emp_phase_duration"].ParentID != root.Span.String() {
		t.Errorf("child parent = %q, want root span %s", byName["emp_phase_duration"].ParentID, root.Span)
	}
	if byName["emp_leaf_duration"].ParentID != child.Span.String() {
		t.Errorf("leaf parent = %q, want child span %s", byName["emp_leaf_duration"].ParentID, child.Span)
	}
	if byName["emp_req"].ParentID != "" {
		t.Errorf("root parent = %q, want none", byName["emp_req"].ParentID)
	}
}

// TestSpanEndEmitsOneEvent: Span.End has one path. Each End records one
// observation and emits exactly one "span" event, stamped with trace, span
// and parent ids when the span has them and bare otherwise; Observe records
// without emitting.
func TestSpanEndEmitsOneEvent(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	sink := &MemorySink{}
	r.SetSink(sink)
	h := r.Histogram("emp_one_duration", "h", nil)

	h.Observe(time.Millisecond)
	if n := len(sink.Events()); n != 0 {
		t.Fatalf("Observe emitted %d events, want 0", n)
	}

	h.Start().End()
	evs := sink.Events()
	if len(evs) != 1 {
		t.Fatalf("identity-free End emitted %d events, want 1: %+v", len(evs), evs)
	}
	if e := evs[0]; e.Kind != "span" || e.Name != "emp_one_duration" ||
		e.TraceID != "" || e.SpanID != "" || e.ParentID != "" {
		t.Fatalf("identity-free span event = %+v, want a bare span event", e)
	}

	parent := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	sp, _ := h.StartCtx(ContextWithSpan(context.Background(), parent))
	sp.End()
	evs = sink.Events()
	if len(evs) != 2 {
		t.Fatalf("identified End emitted %d events, want 1: %+v", len(evs)-1, evs[1:])
	}
	if e := evs[1]; e.Kind != "span" || e.Name != "emp_one_duration" ||
		e.TraceID != parent.Trace.String() || e.SpanID != sp.Context().Span.String() ||
		e.ParentID != parent.Span.String() {
		t.Fatalf("identified span event = %+v, want trace %s, span %s, parent %s",
			e, parent.Trace, sp.Context().Span, parent.Span)
	}
	if got := h.Count(); got != 3 {
		t.Fatalf("count = %d, want 3 (one Observe, two span ends)", got)
	}
}

// TestStartCtxDisabledIsFree: with telemetry disabled, StartCtx must return
// the context unchanged (no allocation, no identity) and End must not emit.
func TestStartCtxDisabledIsFree(t *testing.T) {
	r := New() // disabled
	sink := &MemorySink{}
	r.SetSink(sink)
	ctx := context.Background()
	span, got := r.Histogram("emp_x_duration", "h", nil).StartCtx(ctx)
	if got != ctx {
		t.Fatal("disabled StartCtx wrapped the context")
	}
	if span.Context().IsValid() {
		t.Fatal("disabled span carries identity")
	}
	span.End()
	if n := len(sink.Events()); n != 0 {
		t.Fatalf("disabled span emitted %d events", n)
	}
	// Nil receivers stay safe with a nil context too.
	var h *Histogram
	sp, _ := h.StartCtx(nil)
	sp.End()
}

func TestHistogramObserveAndCumulative(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	h := r.Histogram("emp_lat", "h", []float64{0.01, 0.1, 1})
	for _, d := range []time.Duration{
		5 * time.Millisecond,   // <= 0.01
		50 * time.Millisecond,  // <= 0.1
		500 * time.Millisecond, // <= 1
		2 * time.Second,        // +Inf
	} {
		h.Observe(d)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 2555*time.Millisecond; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	cum := h.Cumulative()
	want := []int64{1, 2, 3, 4}
	if len(cum) != len(want) {
		t.Fatalf("cumulative has %d buckets, want %d", len(cum), len(want))
	}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative = %v, want %v", cum, want)
		}
	}
}

func TestHistogramPrometheusRendering(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	h := r.Histogram(`emp_request_duration{path="/solve"}`, "Request latency.", []float64{0.005, 2.5})
	h.Observe(time.Millisecond)
	h.Observe(time.Second)
	h.Observe(10 * time.Second)

	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE emp_request_duration_seconds histogram",
		`emp_request_duration_seconds_bucket{path="/solve",le="0.005"} 1`,
		`emp_request_duration_seconds_bucket{path="/solve",le="2.5"} 2`,
		`emp_request_duration_seconds_bucket{path="/solve",le="+Inf"} 3`,
		`emp_request_duration_seconds_count{path="/solve"} 3`,
		`emp_request_duration_seconds_sum{path="/solve"} 11.001000000`,
		"# TYPE emp_request_duration_seconds_max gauge",
		`emp_request_duration_seconds_max{path="/solve"} 10.000000000`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n---\n%s", want, text)
		}
	}
	// Bucket order must be ascending with +Inf last, not lexicographic.
	inf := strings.Index(text, `le="+Inf"`)
	b25 := strings.Index(text, `le="2.5"`)
	if inf < b25 {
		t.Error("+Inf bucket rendered before the 2.5 bucket")
	}
}

// TestHistogramConcurrent hammers Observe and Cumulative from many
// goroutines; correctness here is "the race detector stays quiet, the final
// count adds up and the max is the largest observation".
func TestHistogramConcurrent(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	h := r.Histogram("emp_conc", "h", nil)

	const workers, perWorker = 8, 200
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(i%7) * time.Millisecond)
				if i%50 == 0 {
					_ = h.Cumulative()
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if got, want := h.Count(), int64(workers*perWorker); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	if got := r.Snapshot()["emp_conc_seconds_max"]; got != 0.006 {
		t.Fatalf("max = %v, want 0.006", got)
	}
}
