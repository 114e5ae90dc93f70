package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCounterGuard(t *testing.T) {
	r := New()
	c := r.Counter("emp_test_total", "test counter")
	c.Add(5)
	if got := c.Value(); got != 0 {
		t.Fatalf("disabled counter recorded %d, want 0", got)
	}
	r.SetEnabled(true)
	c.Add(5)
	c.Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("enabled counter = %d, want 6", got)
	}
	r.SetEnabled(false)
	c.Add(100)
	if got := c.Value(); got != 6 {
		t.Fatalf("re-disabled counter = %d, want 6", got)
	}
}

func TestNilCounterIsSafe(t *testing.T) {
	var c *Counter
	c.Add(3) // must not panic
	c.Inc()
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter Value = %d, want 0", got)
	}
	var g *Gauge
	g.Add(1)
	g.Set(2)
	var h *Histogram
	h.Observe(time.Second)
	sp := h.Start()
	if d := sp.End(); d < 0 {
		t.Fatalf("nil-histogram span duration negative: %v", d)
	}
}

func TestCounterIdentity(t *testing.T) {
	r := New()
	a := r.Counter("emp_same_total", "h")
	b := r.Counter("emp_same_total", "h")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
}

func TestHistogramAggregates(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	h := r.Histogram("emp_test_duration", "test histogram", nil)
	h.Observe(2 * time.Millisecond)
	h.Observe(3 * time.Millisecond)
	if got := h.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	if got := h.Sum(); got != 5*time.Millisecond {
		t.Fatalf("sum = %v, want 5ms", got)
	}
	sp := h.Start()
	time.Sleep(time.Millisecond)
	if d := sp.End(); d < time.Millisecond {
		t.Fatalf("span measured %v, want >= 1ms", d)
	}
	if got := h.Count(); got != 3 {
		t.Fatalf("count after span = %d, want 3", got)
	}
}

func TestPrometheusRendering(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	r.Counter("emp_solve_total", "Completed solves.").Add(7)
	r.Gauge("emp_http_in_flight", "In-flight requests.").Set(2)
	r.Counter(`emp_http_requests_total{path="/solve",code="200"}`, "Requests.").Inc()
	r.Histogram(`emp_solve_phase_duration{phase="construction"}`, "Phase wall time.", nil).Observe(1500 * time.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE emp_solve_total counter",
		"emp_solve_total 7",
		"# TYPE emp_http_in_flight gauge",
		"emp_http_in_flight 2",
		`emp_http_requests_total{path="/solve",code="200"} 1`,
		"# TYPE emp_solve_phase_duration_seconds histogram",
		`emp_solve_phase_duration_seconds_bucket{phase="construction",le="2.5"} 1`,
		`emp_solve_phase_duration_seconds_sum{phase="construction"} 1.500000000`,
		`emp_solve_phase_duration_seconds_count{phase="construction"} 1`,
		"# HELP emp_solve_phase_duration_seconds_max Phase wall time.",
		"# TYPE emp_solve_phase_duration_seconds_max gauge",
		`emp_solve_phase_duration_seconds_max{phase="construction"} 1.500000000`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n---\n%s", want, text)
		}
	}
	// HELP/TYPE must precede every family exactly once.
	if got := strings.Count(text, "# TYPE emp_solve_total counter"); got != 1 {
		t.Errorf("TYPE line for emp_solve_total appears %d times", got)
	}
}

func TestMetricsHandlerMethods(t *testing.T) {
	r := New()
	h := r.MetricsHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Fatalf("POST /metrics = %d, want 405", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); !strings.Contains(allow, "GET") {
		t.Fatalf("Allow header = %q, want GET", allow)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
}

func TestJSONLSink(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	var buf bytes.Buffer
	r.SetSink(NewJSONLSink(&buf))
	if !r.HasSink() {
		t.Fatal("HasSink = false after SetSink")
	}
	r.Emit(Event{Kind: "solve", Name: "fact", Fields: map[string]float64{"p": 12}})
	r.Emit(Event{Kind: "span", Name: "emp_test_duration", DurationNs: time.Millisecond.Nanoseconds()})

	sc := bufio.NewScanner(&buf)
	var events []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Kind != "solve" || events[0].Fields["p"] != 12 {
		t.Fatalf("solve event mangled: %+v", events[0])
	}
	if events[0].TimeUnixNano == 0 {
		t.Fatal("Emit did not stamp the event time")
	}
	if events[1].Kind != "span" || events[1].DurationNs != time.Millisecond.Nanoseconds() {
		t.Fatalf("span event mangled: %+v", events[1])
	}
}

func TestEmitDroppedWhenDisabled(t *testing.T) {
	r := New()
	var buf bytes.Buffer
	r.SetSink(NewJSONLSink(&buf))
	r.Emit(Event{Kind: "solve", Name: "x"})
	if buf.Len() != 0 {
		t.Fatalf("disabled registry emitted %q", buf.String())
	}
}

func TestSnapshot(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	r.Counter("emp_solve_total", "h").Add(3)
	r.Gauge("emp_http_in_flight", "h").Set(1)
	h := r.Histogram("emp_t_duration", "h", nil)
	h.Observe(time.Second)
	h.Observe(250 * time.Millisecond)
	snap := r.Snapshot()
	if snap["emp_solve_total"] != 3 {
		t.Fatalf("snapshot counter = %v", snap["emp_solve_total"])
	}
	if snap["emp_http_in_flight"] != 1 {
		t.Fatalf("snapshot gauge = %v", snap["emp_http_in_flight"])
	}
	if snap["emp_t_duration_seconds_sum"] != 1.25 {
		t.Fatalf("snapshot histogram sum = %v", snap["emp_t_duration_seconds_sum"])
	}
	if snap["emp_t_duration_seconds_count"] != 2 {
		t.Fatalf("snapshot histogram count = %v", snap["emp_t_duration_seconds_count"])
	}
	if snap["emp_t_duration_seconds_max"] != 1 {
		t.Fatalf("snapshot histogram max = %v", snap["emp_t_duration_seconds_max"])
	}
}

func TestMemorySink(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	ms := &MemorySink{}
	r.SetSink(ms)
	r.Emit(Event{Kind: "solve", Name: "a"})
	r.Emit(Event{Kind: "solve", Name: "b"})
	evs := ms.Events()
	if len(evs) != 2 || evs[0].Name != "a" || evs[1].Name != "b" {
		t.Fatalf("memory sink events = %+v", evs)
	}
}
