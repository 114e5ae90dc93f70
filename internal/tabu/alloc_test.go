package tabu

import (
	"context"
	"runtime"
	"testing"

	"emp/internal/flight"
)

// TestMoveLoopAllocs guards the steady-state allocation rate of the Tabu
// move loop: once the searcher's buffers (candidate free list, heap, stamp
// arrays, boundary pair buffers) are warm, applying a move and refreshing
// the affected candidates must not allocate. The bound is per full
// move+refresh+undo+refresh cycle; a regression here silently taxes every
// one of the thousands of moves in a solve.
func TestMoveLoopAllocs(t *testing.T) {
	base := eightKPartition(t)
	p := base.Clone()
	s := newSearcher(p, Heterogeneity{}, nil)
	if s.heap.len() == 0 {
		t.Fatal("no candidate moves on the test partition")
	}
	it := s.heap.min()
	a, to := it.key.area, it.key.to
	from := p.Assignment(a)
	cycle := func() {
		p.MoveArea(a, to)
		s.refreshAround(a, from, to)
		p.MoveArea(a, from)
		s.refreshAround(a, to, from)
	}
	for i := 0; i < 16; i++ {
		cycle() // warm the pools and append-grown buffers
	}
	if avg := testing.AllocsPerRun(200, cycle); avg > 0.5 {
		t.Errorf("steady-state move loop allocates %.2f objects per cycle, want 0", avg)
	}
}

// TestDecliningAssignTapBuildsNothing: offering an incumbent to the
// assignment tap hands over a builder, not an O(n) snapshot. With a tap that
// declines every offer, the search allocates less than one assignment's
// worth more than with no tap at all, however many improvements it offers.
func TestDecliningAssignTapBuildsNothing(t *testing.T) {
	base := eightKPartition(t)
	run := func(tap bool) (offers int, bytes uint64) {
		rec := flight.NewRecorder(0)
		if tap {
			rec.SetAssignTap(func(flight.Sample, func() []int) { offers++ })
		}
		ctx := flight.NewContext(context.Background(), rec)
		p := base.Clone()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Improve(p, Config{Tenure: 10, MaxNoImprove: 200, Ctx: ctx})
		runtime.ReadMemStats(&after)
		return offers, after.TotalAlloc - before.TotalAlloc
	}
	_, plain := run(false)
	offers, tapped := run(true)
	if offers < 10 {
		t.Fatalf("only %d offers; the test needs a search with many improvements", offers)
	}
	snapshot := uint64(8 * base.Dataset().N())
	if tapped > plain+snapshot {
		t.Errorf("declining tap: search allocated %d bytes, %d without a tap (%d offers; one assignment is %d bytes)",
			tapped, plain, offers, snapshot)
	}
}
