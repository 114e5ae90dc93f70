// Package flight is the per-solve flight recorder: a bounded ring of
// (elapsed, p, H, phase, moves) samples captured at incumbent improvements
// and phase transitions, plus a byte-budgeted store retaining the span
// events and convergence curves of recent solves for live introspection
// (`/v1/debug/*`) and offline trace rendering (`empquery trace`).
//
// The recorder travels in the solve's context.Context; solver packages fetch
// it once per run with FromContext and record through nil-safe methods, so
// an unwired solve costs one context lookup and nothing else. Samples land
// in a preallocated ring under a mutex — sampling happens at improvement
// granularity (tens to hundreds per solve), never per candidate move, so the
// lock is uncontended and the hot path stays allocation-free.
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

// sample is the packed in-ring record: 32 bytes, no pointers.
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

// DefaultSamples is the ring capacity when NewRecorder is given none: deep
// enough for every phase transition plus the improvement tail of a long
// search, small enough (32 B/sample) to keep hundreds of retained solves
// cheap.
const DefaultSamples = 256

// Recorder captures one solve's convergence trajectory. All methods are
// nil-receiver safe so solver code records unconditionally. The ring
// overwrites its oldest samples on overflow (the recent tail is what the
// anytime curve needs); Dropped reports how many were lost.
type Recorder struct {
	mu        sync.Mutex
	t0        time.Time
	buf       []sample
	head      int // index of oldest sample once the ring is full
	total     int // samples ever recorded
	phase     Phase
	lastP     int32
	lastH     float64
	doneNs    int64 // elapsed at Finish, 0 while in flight
	finished  bool
	tap       func(Sample)
	assignTap func(Sample, func() []int)
}

// SetTap installs a callback invoked with every sample the recorder
// captures, after it lands in the ring. The tap runs outside the recorder
// mutex (a slow consumer delays the recording goroutine, never a concurrent
// reader) and must be installed before the solve starts — it is not
// synchronized against in-flight recording. The async jobs layer uses it to
// stream incumbent improvements to watchers as they happen.
func (r *Recorder) SetTap(fn func(Sample)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tap = fn
	r.mu.Unlock()
}

// NewRecorder returns a recorder with the given ring capacity (DefaultSamples
// when <= 0), started now.
func NewRecorder(capSamples int) *Recorder {
	if capSamples <= 0 {
		capSamples = DefaultSamples
	}
	return &Recorder{t0: time.Now(), buf: make([]sample, 0, capSamples)}
}

// add appends under r.mu, overwriting the oldest sample when full.
func (r *Recorder) add(s sample) {
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
		return
	}
	r.buf[r.head] = s
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
}

// export converts a packed sample to its exported form.
func export(s sample) Sample {
	return Sample{ElapsedNs: s.elapsedNs, P: int(s.p), H: s.h, Phase: s.phase.String(), Moves: int(s.moves)}
}

// SetPhase records a phase transition (stamped with the current incumbent).
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
	s := sample{elapsedNs: int64(time.Since(r.t0)), h: r.lastH, p: r.lastP, phase: p}
	r.add(s)
	tap := r.tap
	r.mu.Unlock()
	if tap != nil {
		tap(export(s))
	}
}

// Improve records a new incumbent: current region count p, heterogeneity h
// and the cumulative move count of the search so far.
func (r *Recorder) Improve(p int, h float64, moves int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.lastP, r.lastH = int32(p), h
	s := sample{elapsedNs: int64(time.Since(r.t0)), h: h, p: int32(p), moves: int32(moves), phase: r.phase}
	r.add(s)
	tap := r.tap
	r.mu.Unlock()
	if tap != nil {
		tap(export(s))
	}
}

// Finish records the final (p, H) — the values the response reports — and
// freezes the elapsed clock.
func (r *Recorder) Finish(p int, h float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.phase = PhaseDone
	r.lastP, r.lastH = int32(p), h
	el := int64(time.Since(r.t0))
	r.doneNs = el
	r.finished = true
	s := sample{elapsedNs: el, h: h, p: int32(p), phase: PhaseDone}
	r.add(s)
	tap := r.tap
	r.mu.Unlock()
	if tap != nil {
		tap(export(s))
	}
}

// Status returns the current phase, elapsed time and incumbent (p, H).
func (r *Recorder) Status() (phase Phase, elapsed time.Duration, p int, h float64) {
	if r == nil {
		return PhaseQueued, 0, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	el := r.doneNs
	if !r.finished {
		el = int64(time.Since(r.t0))
	}
	return r.phase, time.Duration(el), int(r.lastP), r.lastH
}

// Curve returns the recorded samples in chronological order.
func (r *Recorder) Curve() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, len(r.buf))
	for i := 0; i < len(r.buf); i++ {
		out = append(out, export(r.buf[(r.head+i)%len(r.buf)]))
	}
	return out
}

// Dropped returns how many samples were overwritten by ring overflow.
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.total - len(r.buf)
	if d < 0 {
		return 0
	}
	return d
}

// cost is the entry's memory estimate for the store's byte budget.
func (r *Recorder) cost() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(cap(r.buf))*32 + 96
}

// ctxKey keys the recorder in a context.
type ctxKey struct{}

// NewContext returns ctx carrying the recorder.
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
