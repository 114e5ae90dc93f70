// Package flight is the per-solve flight recorder: one append-only log of
// (elapsed, p, H, phase, moves) samples, thinned as it is written, plus a
// byte-budgeted store retaining the span events and logs of recent solves
// for live introspection (`/v1/debug/*`) and offline trace rendering
// (`empquery trace`). A job's event stream (GET /v1/jobs/{id}/events) reads
// the same log by index, so the stream and the debug curve are one
// sequence.
//
// The recorder travels in the solve's context.Context; solver packages fetch
// it once per run with FromContext and record through nil-safe methods, so
// an unwired solve costs one context lookup and nothing else. Samples arrive
// at improvement granularity, never per candidate move, so the lock is
// uncontended.
//
// Retention: the log keeps every phase transition and every incumbent that
// changes p. An H-only incumbent joins it once max(10 ms, elapsed/100) has
// passed since the last entry; otherwise it is held until a later entry
// supersedes it or a phase transition, Finish or Flush logs it. So the log
// ends on the exact final incumbent, and a five-minute search logs about
// 670 H entries however many improvements it makes.
//
// Every sample describes the whole problem: shard sub-solves run under a
// context whose recorder is nil, so they record nothing, and the parent
// records the phases, the seam-repair incumbents of a cut solve and the
// final (p, H). One tap (SetTap) receives every sample, logged or not,
// together with a builder for the incumbent's assignment when the sample
// carries one.
package flight

import (
	"context"
	"sync"
	"time"
)

// Phase is where a solve currently is. Phases are recorded on transitions
// and stamped on every sample.
type Phase uint8

const (
	PhaseQueued Phase = iota
	PhaseFeasibility
	PhaseConstruction
	PhaseSearch
	PhaseShards
	PhaseDone
)

var phaseNames = [...]string{"queued", "feasibility", "construction", "search", "shards", "done"}

// String returns the lowercase phase name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// sample is the packed log record: 32 bytes, no pointers.
type sample struct {
	elapsedNs int64
	h         float64
	p         int32
	moves     int32
	phase     Phase
}

// Sample is one exported convergence-curve point.
type Sample struct {
	ElapsedNs int64   `json:"elapsed_ns"`
	P         int     `json:"p"`
	H         float64 `json:"h"`
	Phase     string  `json:"phase"`
	Moves     int     `json:"moves"`
}

// The retention rule's spacing between logged H-only incumbents:
// max(minGap, elapsed/gapDivisor).
const (
	minGap     = 10 * time.Millisecond
	gapDivisor = 100
)

// Recorder captures one solve's convergence trajectory in an append-only
// log thinned by the retention rule (see the package comment). All methods
// are nil-receiver safe so solver code records unconditionally.
type Recorder struct {
	mu      sync.Mutex
	now     func() time.Time // the clock; tests replace it
	t0      time.Time
	log     []sample
	pending sample // the newest incumbent, kept out of the log while held
	held    bool
	grew    chan struct{} // closed at the next append or Flush; nil until a reader waits
	phase   Phase
	lastP   int32
	lastH   float64
	tap     func(Sample, func() []int)
}

// SetTap installs a callback invoked with every sample the recorder
// captures, whether the log keeps it or not. assign is the builder Improve
// was given (nil for phase transitions, Finish, and incumbents that offer
// none): it returns the incumbent's assignment (area index → dense region
// label, -1 unassigned — the exact shape fact.Config.WarmStart consumes) in
// O(n), so the tap calls it only for samples it acts on, and only before
// returning, while the solver still sits at that incumbent. The tap runs
// outside the recorder mutex, on the recording goroutine (a slow consumer
// delays the solve, never a concurrent reader), and must be installed before
// the solve starts — it is not synchronized against in-flight recording. The
// async jobs layer uses it to checkpoint incumbents.
func (r *Recorder) SetTap(fn func(s Sample, assign func() []int)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tap = fn
	r.mu.Unlock()
}

// NewRecorder returns an empty recorder, started now.
func NewRecorder() *Recorder {
	return &Recorder{now: time.Now, t0: time.Now()}
}

// elapsedLocked is the solve time so far. Caller holds r.mu.
func (r *Recorder) elapsedLocked() int64 { return int64(r.now().Sub(r.t0)) }

// logLocked appends s, which supersedes any held incumbent, and wakes the
// readers waiting in Log. Caller holds r.mu.
func (r *Recorder) logLocked(s sample) {
	r.log = append(r.log, s)
	r.held = false
	r.wakeLocked()
}

// flushLocked logs the held incumbent, if any. Caller holds r.mu.
func (r *Recorder) flushLocked() {
	if r.held {
		r.logLocked(r.pending)
	}
}

// wakeLocked releases the readers waiting in Log. Caller holds r.mu.
func (r *Recorder) wakeLocked() {
	if r.grew != nil {
		close(r.grew)
		r.grew = nil
	}
}

// export converts a packed sample to its exported form.
func export(s sample) Sample {
	return Sample{ElapsedNs: s.elapsedNs, P: int(s.p), H: s.h, Phase: s.phase.String(), Moves: int(s.moves)}
}

// SetPhase logs the held incumbent, then the phase transition stamped with
// the current incumbent.
func (r *Recorder) SetPhase(p Phase) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if p == r.phase {
		r.mu.Unlock()
		return
	}
	r.phase = p
	r.flushLocked()
	s := sample{elapsedNs: r.elapsedLocked(), h: r.lastH, p: r.lastP, phase: p}
	r.logLocked(s)
	tap := r.tap
	r.mu.Unlock()
	if tap != nil {
		tap(export(s), nil)
	}
}

// Improve records a new incumbent: current region count p, heterogeneity h
// and the cumulative move count of the search so far. The log keeps it when
// it changes p or the spacing since the last logged entry allows; otherwise
// it is held until a later entry supersedes or flushes it. assign, when
// non-nil, builds the incumbent's assignment for the tap; it is valid only
// for the duration of the call.
func (r *Recorder) Improve(p int, h float64, moves int, assign func() []int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.lastP, r.lastH = int32(p), h
	s := sample{elapsedNs: r.elapsedLocked(), h: h, p: int32(p), moves: int32(moves), phase: r.phase}
	var last sample
	if n := len(r.log); n > 0 {
		last = r.log[n-1]
	}
	if s.p != last.p || s.elapsedNs-last.elapsedNs >= max(int64(minGap), s.elapsedNs/gapDivisor) {
		r.logLocked(s)
	} else {
		r.pending, r.held = s, true
	}
	tap := r.tap
	r.mu.Unlock()
	if tap != nil {
		tap(export(s), assign)
	}
}

// Finish logs the held incumbent, then the final (p, H) — the values the
// response reports — which freezes the elapsed clock.
func (r *Recorder) Finish(p int, h float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.flushLocked()
	r.phase = PhaseDone
	r.lastP, r.lastH = int32(p), h
	s := sample{elapsedNs: r.elapsedLocked(), h: h, p: int32(p), phase: PhaseDone}
	r.logLocked(s)
	tap := r.tap
	r.mu.Unlock()
	if tap != nil {
		tap(export(s), nil)
	}
}

// Flush logs the held incumbent, if any, wakes every reader waiting in Log,
// and returns the log's length and newest entry (zero when empty). Sealing
// a job's event stream calls it, so the stream ends on the newest incumbent.
func (r *Recorder) Flush() (n int, last Sample) {
	if r == nil {
		return 0, Sample{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushLocked()
	r.wakeLocked()
	if n = len(r.log); n > 0 {
		last = export(r.log[n-1])
	}
	return n, last
}

// Status returns the current phase, elapsed time (frozen at Finish) and
// incumbent (p, H), including a held incumbent the log has not taken yet.
func (r *Recorder) Status() (phase Phase, elapsed time.Duration, p int, h float64) {
	if r == nil {
		return PhaseQueued, 0, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	el := r.elapsedLocked()
	if r.phase == PhaseDone {
		el = r.log[len(r.log)-1].elapsedNs
	}
	return r.phase, time.Duration(el), int(r.lastP), r.lastH
}

// Log returns the logged entries from index from on, and a channel closed
// at the next append or Flush: a reader drains what it got, then waits on
// the channel. Entries never change once logged, so an index is a stable
// cursor.
func (r *Recorder) Log(from int) ([]Sample, <-chan struct{}) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.grew == nil {
		r.grew = make(chan struct{})
	}
	from = min(max(from, 0), len(r.log))
	// Non-nil even when empty, so a curve with no entries encodes as [].
	out := make([]Sample, 0, len(r.log)-from)
	for _, s := range r.log[from:] {
		out = append(out, export(s))
	}
	return out, r.grew
}

// Len returns the number of logged entries.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.log)
}

// ctxKey keys the recorder in a context.
type ctxKey struct{}

// NewContext returns ctx carrying the recorder. A nil recorder masks any
// recorder ctx already carries: everything run under the result records
// nothing.
func NewContext(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext extracts the recorder; nil when none (all Recorder methods
// accept a nil receiver, so callers need no check).
func FromContext(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(ctxKey{}).(*Recorder)
	return r
}
