package flight

import (
	"sync"

	"emp/internal/obs"
)

// SpanRec is one captured span: the flattened form of an identified obs
// "span" event, reconstructible into a tree with BuildTree.
type SpanRec struct {
	Name     string `json:"name"`
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	// StartUnixNano is the span's wall-clock start (event time minus
	// duration; obs stamps events at span end).
	StartUnixNano int64 `json:"start_unix_nano"`
	DurNs         int64 `json:"dur_ns"`
}

// InflightSolve is one row of the live `/v1/debug/solves` view.
type InflightSolve struct {
	TraceID   string  `json:"trace_id"`
	Dataset   string  `json:"dataset,omitempty"`
	Phase     string  `json:"phase"`
	ElapsedNs int64   `json:"elapsed_ns"`
	P         int     `json:"p"`
	H         float64 `json:"h"`
	Samples   int     `json:"samples"`
}

// TraceDump is the `/v1/debug/trace/{id}` payload and the JSON consumed by
// `empquery trace`: the span tree plus the convergence curve.
type TraceDump struct {
	TraceID  string      `json:"trace_id"`
	Dataset  string      `json:"dataset,omitempty"`
	InFlight bool        `json:"in_flight"`
	Spans    []SpanRec   `json:"spans"`
	Tree     []*SpanNode `json:"tree"`
	Curve    []Sample    `json:"curve"`
	// DroppedSpans counts span events past the per-trace cap.
	DroppedSpans int `json:"dropped_spans,omitempty"`
}

// entry is one tracked solve: its recorder plus every identified span event
// seen for its trace id.
type entry struct {
	trace        obs.TraceID
	dataset      string
	rec          *Recorder
	spans        []SpanRec
	droppedSpans int
	spanBytes    int64
	inflight     bool
	charged      int64 // bytes counted in Store.doneBytes once finished
}

// maxSpansPerTrace bounds one trace's span list: a sharded solve emits a few
// spans per shard plus a handful of phase spans, so 4096 only trips on runaway
// emitters, which the cap converts into DroppedSpans instead of memory growth.
const maxSpansPerTrace = 4096

// spanRecOverhead estimates a SpanRec's heap cost beyond its strings.
const spanRecOverhead = 96

// Store retains flight recorders and span events for the last K solves
// within a byte budget, and implements obs.Sink so it can be fanned in next
// to the registry's primary sink (see obswire.Fanout). In-flight solves are
// never evicted; finished ones age out FIFO once the budget or trace count
// is exceeded.
type Store struct {
	mu        sync.Mutex
	budget    int64
	maxTraces int
	byTrace   map[obs.TraceID]*entry
	done      []*entry // finish order, oldest first
	doneBytes int64
}

// NewStore returns a store keeping at most maxTraces finished solves within
// budgetBytes (defaults: 64 traces, 8 MiB).
func NewStore(budgetBytes int64, maxTraces int) *Store {
	if budgetBytes <= 0 {
		budgetBytes = 8 << 20
	}
	if maxTraces <= 0 {
		maxTraces = 64
	}
	return &Store{
		budget:    budgetBytes,
		maxTraces: maxTraces,
		byTrace:   make(map[obs.TraceID]*entry),
	}
}

// Begin registers rec, the recorder attached to the solve's context with
// NewContext, as the in-flight solve of the trace id. The store does not
// track rec under a zero trace id, or under one whose solve is still in
// flight (a traced client fanning out several solves): the entry already
// there keeps its solve.
func (s *Store) Begin(trace obs.TraceID, dataset string, rec *Recorder) {
	if s == nil || !trace.IsValid() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.byTrace[trace]; ok {
		if old.inflight {
			return
		}
		// A trace id reappearing (retried request reusing its traceparent)
		// replaces the finished record.
		s.removeDoneLocked(old)
	}
	s.byTrace[trace] = &entry{trace: trace, dataset: dataset, rec: rec, inflight: true}
}

// Finish moves the solve from the in-flight view into the retained set,
// charging it for its log's length, and evicts the oldest finished traces
// past the budget. It acts only when rec is the recorder Begin registered
// for the trace.
func (s *Store) Finish(trace obs.TraceID, rec *Recorder) {
	if s == nil || !trace.IsValid() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byTrace[trace]
	if !ok || !e.inflight || e.rec != rec {
		return
	}
	e.inflight = false
	e.charged = int64(rec.Len())*32 + e.spanBytes + 160 // 32 B per log entry, plus the recorder and entry
	s.done = append(s.done, e)
	s.doneBytes += e.charged
	for len(s.done) > 0 && (len(s.done) > s.maxTraces || s.doneBytes > s.budget) {
		s.removeDoneLocked(s.done[0])
	}
}

// removeDoneLocked drops a finished entry from the FIFO and the index.
func (s *Store) removeDoneLocked(e *entry) {
	for i, d := range s.done {
		if d == e {
			s.done = append(s.done[:i], s.done[i+1:]...)
			s.doneBytes -= e.charged
			break
		}
	}
	delete(s.byTrace, e.trace)
}

// Emit implements obs.Sink: span events carrying a trace id the store is
// tracking are captured into that trace's span list. Everything else is
// ignored. Emit never blocks on anything but the store mutex.
func (s *Store) Emit(ev obs.Event) {
	if s == nil || ev.Kind != "span" || ev.TraceID == "" {
		return
	}
	t, err := obs.ParseTraceID(ev.TraceID)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byTrace[t]
	if !ok {
		return
	}
	if len(e.spans) >= maxSpansPerTrace {
		e.droppedSpans++
		return
	}
	rec := SpanRec{
		Name:          ev.Name,
		TraceID:       ev.TraceID,
		SpanID:        ev.SpanID,
		ParentID:      ev.ParentID,
		StartUnixNano: ev.TimeUnixNano - ev.DurationNs,
		DurNs:         ev.DurationNs,
	}
	add := int64(len(rec.Name)+len(rec.TraceID)+len(rec.SpanID)+len(rec.ParentID)) + spanRecOverhead
	e.spans = append(e.spans, rec)
	e.spanBytes += add
	if !e.inflight {
		// Late spans (the HTTP root ends after Finish) grow a retained
		// entry; keep the budget honest.
		e.charged += add
		s.doneBytes += add
	}
}

// Inflight returns the live solves, most recently started last.
func (s *Store) Inflight() []InflightSolve {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	entries := make([]*entry, 0, 4)
	for _, e := range s.byTrace {
		if e.inflight {
			entries = append(entries, e)
		}
	}
	s.mu.Unlock()
	out := make([]InflightSolve, 0, len(entries))
	for _, e := range entries {
		phase, elapsed, p, h := e.rec.Status()
		out = append(out, InflightSolve{
			TraceID: e.trace.String(), Dataset: e.dataset,
			Phase: phase.String(), ElapsedNs: int64(elapsed),
			P: p, H: h, Samples: e.rec.Len(),
		})
	}
	sortInflight(out)
	return out
}

// sortInflight orders rows by trace id for a stable view.
func sortInflight(rows []InflightSolve) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j].TraceID < rows[j-1].TraceID; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

// Trace returns the dump for one trace id (in-flight or retained).
func (s *Store) Trace(id string) (*TraceDump, bool) {
	if s == nil {
		return nil, false
	}
	t, err := obs.ParseTraceID(id)
	if err != nil {
		return nil, false
	}
	s.mu.Lock()
	e, ok := s.byTrace[t]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	// The copy is non-nil even when no span has been captured yet (a solve
	// Begin'd but still queued for a worker), so the dump's arrays encode as
	// [] instead of null and clients always get a well-formed partial tree.
	spans := append([]SpanRec{}, e.spans...)
	dump := &TraceDump{
		TraceID:      e.trace.String(),
		Dataset:      e.dataset,
		InFlight:     e.inflight,
		Spans:        spans,
		DroppedSpans: e.droppedSpans,
	}
	rec := e.rec
	s.mu.Unlock()
	dump.Curve, _ = rec.Log(0)
	dump.Tree = BuildTree(spans)
	return dump, true
}

// Stats summarizes the store for the cache debug view.
type Stats struct {
	Inflight    int   `json:"inflight"`
	Retained    int   `json:"retained"`
	BudgetBytes int64 `json:"budget_bytes"`
	UsedBytes   int64 `json:"used_bytes"`
}

// StoreStats returns occupancy numbers.
func (s *Store) StoreStats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	inflight := len(s.byTrace) - len(s.done)
	return Stats{
		Inflight:    inflight,
		Retained:    len(s.done),
		BudgetBytes: s.budget,
		UsedBytes:   s.doneBytes,
	}
}

// ensure interface compliance at compile time.
var _ obs.Sink = (*Store)(nil)
