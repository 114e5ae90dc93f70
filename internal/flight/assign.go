package flight

import (
	"context"
	"time"
)

// Assignment tap: a second, heavier channel next to SetTap. Samples on the
// convergence curve are 32 bytes; an assignment snapshot is O(n) ints, so
// the solver offers one only when a consumer asked for it (AssignWanted) and
// the context allows it (AssignAllowed), and even then hands over a builder
// rather than the snapshot: the tap builds the assignment only for the
// offers it keeps. The durable layer installs the tap to checkpoint a
// running job's incumbent.

// SetAssignTap installs a callback invoked with each offered incumbent.
// assign builds the incumbent's assignment (area index → dense region label,
// -1 unassigned — the exact shape fact.Config.WarmStart consumes) in O(n);
// the tap calls it only for offers it acts on, and only before returning,
// while the solver still sits at that incumbent. Like SetTap it must be
// installed before the solve starts and runs outside the recorder mutex, on
// the solver's goroutine: the tap's own throttling is what keeps checkpoint
// I/O off the hot path.
func (r *Recorder) SetAssignTap(fn func(s Sample, assign func() []int)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.assignTap = fn
	r.mu.Unlock()
}

// AssignWanted reports whether an assignment tap is installed. Solvers check
// it once per run and skip building O(n) snapshots entirely when false.
func (r *Recorder) AssignWanted() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.assignTap != nil
}

// OfferAssign offers the current incumbent to the tap, stamped like an
// Improve sample. assign builds the incumbent's assignment; it is valid only
// for the duration of the call.
func (r *Recorder) OfferAssign(p int, h float64, moves int, assign func() []int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	tap := r.assignTap
	s := sample{elapsedNs: int64(time.Since(r.t0)), h: h, p: int32(p), moves: int32(moves), phase: r.phase}
	r.mu.Unlock()
	if tap != nil {
		tap(export(s), assign)
	}
}

// assignCtxKey marks contexts where assignment offers are suppressed.
type assignCtxKey struct{}

// WithoutAssign returns ctx with assignment offers disabled. Shard sub-solves
// run under the parent's recorder but work on renumbered sub-instances: a
// shard-local assignment is meaningless (wrong length, wrong area indexing)
// as a whole-problem warm start, so the shard runner suppresses offers for
// the entire subtree with one context mark.
func WithoutAssign(ctx context.Context) context.Context {
	return context.WithValue(ctx, assignCtxKey{}, true)
}

// AssignAllowed reports whether assignment offers are allowed under ctx.
func AssignAllowed(ctx context.Context) bool {
	if ctx == nil {
		return true
	}
	off, _ := ctx.Value(assignCtxKey{}).(bool)
	return !off
}
