package fact

import (
	"context"
	"time"
)

// constructionBudgetFrac is the share of the remaining deadline that
// construction iterations beyond the first may spend. FaCT is anytime-shaped:
// the first construction iteration produces the incumbent, extra iterations
// only re-roll it and the local search only improves it — so under a deadline
// the allocator caps the re-rolls at half the remaining budget and leaves the
// rest to the local search, whose revert-to-best epilogue can stop at any
// instant without losing the incumbent. The first iteration deliberately runs
// under the caller's full deadline: without an incumbent there is nothing to
// degrade to, so starving it would turn a tight budget into a hard failure.
const constructionBudgetFrac = 0.5

// cutSubSolveBudgetFrac is the share of the remaining deadline the cut-shard
// sub-solves may spend. The tail is reserved for the seam repair: an
// unrepaired stitch (unassigned boundary areas, un-searched seam regions)
// costs more solution quality than slightly shorter sub-solves, so under a
// deadline the sub-solves run on a slice and the repair runs under the
// caller's full deadline. Without a deadline the split is a no-op.
const cutSubSolveBudgetFrac = 0.85

// budgetCtx allocates a phase the share frac of the deadline remaining on
// ctx. Without a deadline (or with one already spent) it returns ctx itself
// and a no-op cancel, so the deadline-free path allocates nothing.
func budgetCtx(ctx context.Context, frac float64) (context.Context, context.CancelFunc) {
	deadline, ok := ctx.Deadline()
	if !ok {
		return ctx, func() {}
	}
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return ctx, func() {}
	}
	slice := time.Duration(frac * float64(remaining))
	return context.WithDeadline(ctx, time.Now().Add(slice))
}
