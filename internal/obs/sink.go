package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Event is one structured telemetry record. Spans emit Kind "span" with the
// histogram's name and duration; solvers emit domain events ("solve", "trace")
// with numeric Fields. The JSONL schema is documented in
// docs/OBSERVABILITY.md and consumed by `empbench -trace`.
type Event struct {
	// TimeUnixNano is the wall-clock stamp; Registry.Emit fills it when
	// zero.
	TimeUnixNano int64 `json:"t"`
	// TS is the same wall-clock stamp rendered as RFC 3339 with nanosecond
	// precision in UTC, for cross-process ordering and human inspection of
	// JSONL streams; Registry.Emit fills it when empty.
	TS string `json:"ts,omitempty"`
	// Kind classifies the event: "span", "solve", "http", ...
	Kind string `json:"kind"`
	// Name identifies the span or event source.
	Name string `json:"name"`
	// DurationNs is the span length (0 for point events).
	DurationNs int64 `json:"dur_ns,omitempty"`
	// TraceID/SpanID/ParentID correlate span events into per-request trees
	// (hex, W3C trace-context sized). Empty on identity-free events.
	TraceID  string `json:"trace_id,omitempty"`
	SpanID   string `json:"span_id,omitempty"`
	ParentID string `json:"parent_id,omitempty"`
	// Fields carries numeric payload (counters, scores, sizes).
	Fields map[string]float64 `json:"fields,omitempty"`
}

// Sink receives telemetry events. Implementations must be safe for
// concurrent Emit calls.
type Sink interface {
	Emit(Event)
}

// JSONLSink streams events as one JSON object per line.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLSink wraps the writer. The caller owns closing the underlying
// file/conn.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit writes the event as a JSON line; encoding errors are dropped (a
// telemetry stream must never fail the solve).
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.enc.Encode(e)
}

// MemorySink buffers events in memory, for tests and small traces.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (s *MemorySink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, e)
}

// Events returns a copy of the buffered events.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}
