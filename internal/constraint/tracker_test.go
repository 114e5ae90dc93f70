package constraint

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// testColumns builds an evaluator over two attribute columns A and B.
func testColumns(t *testing.T, set Set, a, b []float64) *Evaluator {
	t.Helper()
	ev, err := NewEvaluator(set, func(attr string) []float64 {
		switch attr {
		case "A":
			return a
		case "B":
			return b
		}
		return nil
	})
	if err != nil {
		t.Fatalf("NewEvaluator: %v", err)
	}
	return ev
}

func TestNewEvaluatorErrors(t *testing.T) {
	lookup := func(string) []float64 { return nil }
	if _, err := NewEvaluator(Set{AtLeast(Sum, "MISSING", 1)}, lookup); err == nil {
		t.Error("missing attribute accepted")
	}
	if _, err := NewEvaluator(Set{New(Avg, "A", 5, 2)}, lookup); err == nil {
		t.Error("invalid set accepted")
	}
	// COUNT needs no column.
	if _, err := NewEvaluator(Set{AtLeast(Count, "", 1)}, lookup); err != nil {
		t.Errorf("COUNT-only evaluator: %v", err)
	}
}

func TestTrackerAddValues(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{10, 20, 30, 40, 50}
	set := Set{
		AtLeast(Sum, "A", 0),  // 0: SUM(A)
		AtLeast(Min, "A", 0),  // 1: MIN(A)
		AtMost(Max, "B", 100), // 2: MAX(B)
		New(Avg, "B", 0, 100), // 3: AVG(B)
		AtLeast(Count, "", 0), // 4: COUNT
	}
	ev := testColumns(t, set, a, b)
	tr := ev.NewTracker()
	if tr.Count() != 0 {
		t.Fatal("new tracker not empty")
	}
	if !math.IsInf(tr.Value(1), 1) || !math.IsInf(tr.Value(2), -1) {
		t.Error("empty extrema should be +Inf/-Inf")
	}
	if !math.IsNaN(tr.Value(3)) {
		t.Error("empty AVG should be NaN")
	}
	tr.Add(0)
	tr.Add(2)
	tr.Add(4)
	if got := tr.Value(0); got != 9 {
		t.Errorf("SUM(A) = %v, want 9", got)
	}
	if got := tr.Value(1); got != 1 {
		t.Errorf("MIN(A) = %v, want 1", got)
	}
	if got := tr.Value(2); got != 50 {
		t.Errorf("MAX(B) = %v, want 50", got)
	}
	if got := tr.Value(3); got != 30 {
		t.Errorf("AVG(B) = %v, want 30", got)
	}
	if got := tr.Value(4); got != 3 {
		t.Errorf("COUNT = %v, want 3", got)
	}
}

func TestTrackerRemoveRecomputesExtremes(t *testing.T) {
	a := []float64{5, 1, 1, 9}
	set := Set{AtLeast(Min, "A", 0), AtMost(Max, "A", 100)}
	ev := testColumns(t, set, a, nil)
	tr := ev.Compute([]int{0, 1, 2, 3})
	if tr.Value(0) != 1 || tr.Value(1) != 9 {
		t.Fatalf("initial min/max = %v/%v", tr.Value(0), tr.Value(1))
	}
	// Remove one of the duplicate minima: min stays 1 without recompute.
	tr.Remove(1, []int{0, 2, 3})
	if tr.Value(0) != 1 {
		t.Errorf("min after removing dup = %v, want 1", tr.Value(0))
	}
	// Remove the last minimum: recompute to 5.
	tr.Remove(2, []int{0, 3})
	if tr.Value(0) != 5 {
		t.Errorf("min after removing last 1 = %v, want 5", tr.Value(0))
	}
	// Remove the maximum: recompute to 5.
	tr.Remove(3, []int{0})
	if tr.Value(1) != 5 {
		t.Errorf("max after removing 9 = %v, want 5", tr.Value(1))
	}
	// Remove the final member: tracker resets to empty state.
	tr.Remove(0, nil)
	if tr.Count() != 0 || !math.IsInf(tr.Value(0), 1) || !math.IsInf(tr.Value(1), -1) {
		t.Error("tracker not reset after final removal")
	}
}

func TestTrackerMerge(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6}
	set := Set{AtLeast(Sum, "A", 0), AtLeast(Min, "A", 0), AtMost(Max, "A", 100), New(Avg, "A", 0, 100)}
	ev := testColumns(t, set, a, nil)
	t1 := ev.Compute([]int{0, 1}) // values 1, 2
	t2 := ev.Compute([]int{4, 5}) // values 5, 6
	t1.Merge(t2)
	if t1.Count() != 4 {
		t.Errorf("merged count = %d", t1.Count())
	}
	if t1.Value(0) != 14 || t1.Value(1) != 1 || t1.Value(2) != 6 || t1.Value(3) != 3.5 {
		t.Errorf("merged aggregates = %v %v %v %v", t1.Value(0), t1.Value(1), t1.Value(2), t1.Value(3))
	}
	// Merge with equal extremes accumulates multiplicity: removing one copy
	// of the shared min must not trigger a wrong recompute.
	t3 := ev.Compute([]int{0}) // value 1
	t4 := ev.Compute([]int{3}) // value 4
	_ = t4
	t5 := ev.NewTracker()
	t5.Add(0) // value 1 again (duplicate id is fine for tracker math)
	t3.Merge(t5)
	t3.Remove(0, []int{0})
	if t3.Value(1) != 1 {
		t.Errorf("min after removing one of two equal minima = %v, want 1", t3.Value(1))
	}
}

func TestTrackerClone(t *testing.T) {
	a := []float64{1, 2, 3}
	set := Set{AtLeast(Sum, "A", 0)}
	ev := testColumns(t, set, a, nil)
	t1 := ev.Compute([]int{0, 1})
	c := t1.Clone()
	c.Add(2)
	if t1.Value(0) != 3 {
		t.Errorf("clone mutated original: %v", t1.Value(0))
	}
	if c.Value(0) != 6 {
		t.Errorf("clone sum = %v, want 6", c.Value(0))
	}
}

func TestTrackerSatisfaction(t *testing.T) {
	a := []float64{10, 20, 30}
	set := Set{New(Sum, "A", 25, 55), New(Count, "", 1, 2)}
	ev := testColumns(t, set, a, nil)
	tr := ev.NewTracker()
	if tr.SatisfiedAll() {
		t.Error("empty region must not satisfy")
	}
	tr.Add(0)
	if tr.SatisfiedAll() {
		t.Error("sum 10 outside [25,55]")
	}
	if !tr.Satisfied(1) {
		t.Error("count 1 within [1,2]")
	}
	tr.Add(1)
	if !tr.SatisfiedAll() {
		t.Errorf("sum 30, count 2 should satisfy; sum ok=%v count ok=%v", tr.Satisfied(0), tr.Satisfied(1))
	}
	if tr.SatisfiedAllAfterAdd(2) {
		t.Error("adding area 2 would push count to 3 and sum to 60")
	}
}

func TestSatisfiedAllAfterMerge(t *testing.T) {
	a := []float64{10, 20, 30, 40}
	set := Set{New(Sum, "A", 30, 70), New(Min, "A", 10, 100)}
	ev := testColumns(t, set, a, nil)
	t1 := ev.Compute([]int{0})
	t2 := ev.Compute([]int{1})
	if !t1.SatisfiedAllAfterMerge(t2) {
		t.Error("merge sum 30 should satisfy")
	}
	t3 := ev.Compute([]int{2, 3})
	if t1.SatisfiedAllAfterMerge(t3) {
		t.Error("merge sum 80 should violate upper bound")
	}
	empty1, empty2 := ev.NewTracker(), ev.NewTracker()
	if empty1.SatisfiedAllAfterMerge(empty2) {
		t.Error("merging two empty trackers is still empty")
	}
}

func TestNoConstraintsAnyNonEmptyRegionValid(t *testing.T) {
	ev, err := NewEvaluator(Set{}, func(string) []float64 { return nil })
	if err != nil {
		t.Fatal(err)
	}
	tr := ev.NewTracker()
	if tr.SatisfiedAll() {
		t.Error("empty region valid under empty set")
	}
	tr.Add(0)
	if !tr.SatisfiedAll() {
		t.Error("non-empty region invalid under empty set")
	}
}

// Property: after an arbitrary sequence of adds and removes, the tracker
// matches a naive recomputation over the surviving member multiset.
func TestTrackerMatchesNaive(t *testing.T) {
	const n = 30
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(rng.Intn(10)) // small domain to force duplicate extremes
		}
		set := Set{
			AtLeast(Sum, "A", 0), AtLeast(Min, "A", 0),
			AtMost(Max, "A", 100), New(Avg, "A", 0, 100), AtLeast(Count, "", 0),
		}
		ev, err := NewEvaluator(set, func(attr string) []float64 { return a })
		if err != nil {
			return false
		}
		tr := ev.NewTracker()
		var members []int
		for op := 0; op < 60; op++ {
			if len(members) == 0 || rng.Float64() < 0.6 {
				area := rng.Intn(n)
				tr.Add(area)
				members = append(members, area)
			} else {
				idx := rng.Intn(len(members))
				area := members[idx]
				members = append(members[:idx], members[idx+1:]...)
				tr.Remove(area, members)
			}
			want := ev.Compute(members)
			for i := range set {
				got, exp := tr.Value(i), want.Value(i)
				if math.IsNaN(got) && math.IsNaN(exp) {
					continue
				}
				if math.Abs(got-exp) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: ValueAfterAdd agrees with actually adding.
func TestValueAfterAddMatchesAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, 20)
		for i := range a {
			a[i] = rng.Float64() * 100
		}
		set := Set{AtLeast(Sum, "A", 0), AtLeast(Min, "A", 0), AtMost(Max, "A", 1e9), New(Avg, "A", 0, 1e9), AtLeast(Count, "", 0)}
		ev, _ := NewEvaluator(set, func(string) []float64 { return a })
		tr := ev.NewTracker()
		members := []int{}
		for step := 0; step < 10; step++ {
			area := rng.Intn(len(a))
			for i := range set {
				predicted := tr.ValueAfterAdd(i, area)
				actual := tr.Clone()
				actual.Add(area)
				if math.Abs(predicted-actual.Value(i)) > 1e-9 {
					return false
				}
			}
			tr.Add(area)
			members = append(members, area)
		}
		_ = members
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEvaluatorAccessors(t *testing.T) {
	a := []float64{7}
	set := Set{AtLeast(Sum, "A", 0), AtLeast(Count, "", 0)}
	ev := testColumns(t, set, a, nil)
	if ev.Len() != 2 {
		t.Errorf("Len = %d", ev.Len())
	}
	if ev.At(0).Agg != Sum {
		t.Error("At(0) wrong")
	}
	if ev.Set()[1].Agg != Count {
		t.Error("Set() wrong")
	}
	if ev.AreaValue(0, 0) != 7 {
		t.Error("AreaValue for SUM should read the column")
	}
	if ev.AreaValue(1, 0) != 1 {
		t.Error("AreaValue for COUNT should be 1")
	}
}

// TestTrackerAppendState: equal aggregates append equal words whatever the
// order the areas arrived in or a detour through another member, and any
// aggregate change shows.
func TestTrackerAppendState(t *testing.T) {
	a := []float64{5, 1, 3, 1, 9}
	b := []float64{2, 8, 8, 4, 6}
	set := Set{
		AtLeast(Sum, "A", 0), AtLeast(Min, "A", 0), AtMost(Max, "B", 100),
		New(Avg, "B", 0, 100), AtLeast(Count, "", 0),
	}
	ev := testColumns(t, set, a, b)
	t1, t2 := ev.NewTracker(), ev.NewTracker()
	for _, area := range []int{0, 1, 2} {
		t1.Add(area)
	}
	for _, area := range []int{2, 0, 1} {
		t2.Add(area)
	}
	s1 := t1.AppendState(nil)
	if s2 := t2.AppendState(nil); !slices.Equal(s1, s2) {
		t.Fatalf("same members in another order: %v vs %v", s2, s1)
	}
	t2.Add(3) // a second copy of the minimum of A
	if slices.Equal(t2.AppendState(nil), s1) {
		t.Fatal("an added area left the state unchanged")
	}
	t2.Remove(3, []int{2, 0, 1})
	if s2 := t2.AppendState(nil); !slices.Equal(s1, s2) {
		t.Fatalf("after adding and removing area 3: %v, want %v", s2, s1)
	}
	t2.Remove(1, []int{2, 0}) // the last copy of the minimum leaves
	if slices.Equal(t2.AppendState(nil), s1) {
		t.Fatal("a removed area left the state unchanged")
	}
	if prefix := []uint64{7}; !slices.Equal(t1.AppendState(prefix)[1:], s1) {
		t.Error("AppendState does not append after the given words")
	}
}

// TestNewTrackersIndependent checks that trackers carved from one
// NewTrackers call share backing arrays without sharing state.
func TestNewTrackersIndependent(t *testing.T) {
	set := Set{AtLeast(Sum, "A", 1), AtMost(Max, "B", 10), AtLeast(Min, "A", 0)}
	a, b := []float64{1, 2, 3, 4}, []float64{5, 6, 7, 8}
	ev := testColumns(t, set, a, b)
	ts := ev.NewTrackers(3)
	for j := range ts {
		ts[j].Add(j)
		ts[j].Add(3)
	}
	for j := range ts {
		want := ev.Compute([]int{j, 3}).AppendState(nil)
		if got := ts[j].AppendState(nil); !slices.Equal(got, want) {
			t.Errorf("tracker %d: state %v, want %v", j, got, want)
		}
	}
}
