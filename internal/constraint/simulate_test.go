package constraint

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValueAfterRemoveMatchesRemove(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, 25)
		for i := range vals {
			vals[i] = float64(rng.Intn(8)) // duplicates likely
		}
		set := Set{
			AtLeast(Sum, "A", 0), AtLeast(Min, "A", 0),
			AtMost(Max, "A", 1e9), New(Avg, "A", 0, 1e9), AtLeast(Count, "", 0),
		}
		ev, _ := NewEvaluator(set, func(string) []float64 { return vals })
		members := []int{}
		tr := ev.NewTracker()
		for i := 0; i < 12; i++ {
			a := rng.Intn(len(vals))
			tr.Add(a)
			members = append(members, a)
		}
		for trial := 0; trial < 6; trial++ {
			idx := rng.Intn(len(members))
			area := members[idx]
			for i := range set {
				predicted := tr.ValueAfterRemove(i, area, members)
				// actual removal on a clone
				cl := tr.Clone()
				rest := make([]int, 0, len(members)-1)
				skipped := false
				for _, m := range members {
					if m == area && !skipped {
						skipped = true
						continue
					}
					rest = append(rest, m)
				}
				cl.Remove(area, rest)
				actual := cl.Value(i)
				if math.IsNaN(predicted) && math.IsNaN(actual) {
					continue
				}
				if math.Abs(predicted-actual) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestValueAfterRemoveEmpties(t *testing.T) {
	vals := []float64{5}
	set := Set{AtLeast(Sum, "A", 0), AtLeast(Min, "A", 0), AtMost(Max, "A", 10), New(Avg, "A", 0, 10)}
	ev, _ := NewEvaluator(set, func(string) []float64 { return vals })
	tr := ev.Compute([]int{0})
	if got := tr.ValueAfterRemove(0, 0, []int{0}); got != 0 {
		t.Errorf("SUM after removing only member = %v, want 0", got)
	}
	if !math.IsNaN(tr.ValueAfterRemove(3, 0, []int{0})) {
		t.Error("AVG of emptied region should be NaN")
	}
	if !math.IsInf(tr.ValueAfterRemove(1, 0, []int{0}), 1) {
		t.Error("MIN of emptied region should be +Inf")
	}
	if !math.IsInf(tr.ValueAfterRemove(2, 0, []int{0}), -1) {
		t.Error("MAX of emptied region should be -Inf")
	}
	if tr.SatisfiedAllAfterRemove(0, []int{0}) {
		t.Error("emptying a region must not satisfy")
	}
}

func TestSatisfiedAllAfterRemove(t *testing.T) {
	vals := []float64{10, 20, 30}
	set := Set{New(Sum, "A", 25, 100)}
	ev, _ := NewEvaluator(set, func(string) []float64 { return vals })
	tr := ev.Compute([]int{0, 1, 2}) // sum 60
	if !tr.SatisfiedAllAfterRemove(0, []int{0, 1, 2}) {
		t.Error("sum 50 should satisfy")
	}
	tr2 := ev.Compute([]int{0, 1}) // sum 30
	if tr2.SatisfiedAllAfterRemove(1, []int{0, 1}) {
		t.Error("sum 10 < 25 should fail")
	}
}

func TestUpperSafeAfterAdd(t *testing.T) {
	vals := []float64{10, 20, 100}
	set := Set{
		New(Sum, "A", 50, 60), // lower bound pending is OK
		New(Avg, "A", 5, 40),  // full range enforced
	}
	ev, _ := NewEvaluator(set, func(string) []float64 { return vals })
	tr := ev.Compute([]int{0}) // sum 10, avg 10
	if !tr.UpperSafeAfterAdd(1) {
		t.Error("sum 30 <= 60 and avg 15 in range: safe")
	}
	if tr.UpperSafeAfterAdd(2) {
		t.Error("adding 100 pushes sum to 110 > 60 and avg to 55 > 40")
	}
	// Avg violation alone blocks.
	set2 := Set{New(Avg, "A", 5, 14)}
	ev2, _ := NewEvaluator(set2, func(string) []float64 { return vals })
	tr2 := ev2.Compute([]int{0})
	if tr2.UpperSafeAfterAdd(1) {
		t.Error("avg 15 > 14 must block even though no counting constraint")
	}
}

func TestUpperSafeAfterMerge(t *testing.T) {
	vals := []float64{10, 20, 100, 5}
	set := Set{New(Sum, "A", 50, 120), New(Min, "A", 3, 1e9)}
	ev, _ := NewEvaluator(set, func(string) []float64 { return vals })
	a := ev.Compute([]int{0, 1}) // sum 30
	b := ev.Compute([]int{2})    // sum 100
	if a.UpperSafeAfterMerge(b) {
		t.Error("sum 130 > 120 must block")
	}
	c := ev.Compute([]int{3}) // sum 5
	if !a.UpperSafeAfterMerge(c) {
		t.Error("sum 35 <= 120, min 5 >= 3: safe even though below lower bound")
	}
	e1, e2 := ev.NewTracker(), ev.NewTracker()
	if e1.UpperSafeAfterMerge(e2) {
		t.Error("two empty trackers merge to empty: unsafe")
	}
}

func TestSatisfiedAllAfterRemoveWhenSizeOne(t *testing.T) {
	vals := []float64{10}
	set := Set{}
	ev, _ := NewEvaluator(set, func(string) []float64 { return vals })
	tr := ev.Compute([]int{0})
	if tr.SatisfiedAllAfterRemove(0, []int{0}) {
		t.Error("removing only member empties the region")
	}
}

// TestNoRemovalSatisfies checks the aggregate-only precheck against
// SatisfiedAllAfterRemove: whenever it fires, no member's removal leaves
// the region valid, and it stays silent below a SUM bound whose column
// has a negative value, where removing that value raises the sum.
func TestNoRemovalSatisfies(t *testing.T) {
	a := []float64{4, 5, 12, -3, 7, 0}
	b := []float64{4, 5, 12, 3, 7, 0}
	for _, tc := range []struct {
		name    string
		set     Set
		members []int
		want    bool
	}{
		{"single member", Set{AtLeast(Sum, "B", 1)}, []int{2}, true},
		{"below COUNT lower", Set{AtLeast(Count, "", 4)}, []int{0, 1, 2}, true},
		{"at COUNT lower", Set{AtLeast(Count, "", 3)}, []int{0, 1, 2}, false},
		{"below SUM lower, non-negative", Set{AtLeast(Sum, "B", 20)}, []int{0, 1, 4}, true},
		{"above SUM lower", Set{AtLeast(Sum, "B", 10)}, []int{0, 1, 4}, false},
		{"below SUM lower, negative value", Set{AtLeast(Sum, "A", 10)}, []int{2, 3}, false},
		{"below SUM lower on another column", Set{AtLeast(Sum, "A", 1), AtLeast(Sum, "B", 30)}, []int{0, 1, 4}, true},
	} {
		ev := testColumns(t, tc.set, a, b)
		tr := ev.Compute(tc.members)
		if got := tr.NoRemovalSatisfies(); got != tc.want {
			t.Errorf("%s: NoRemovalSatisfies = %v, want %v", tc.name, got, tc.want)
		}
		if tr.NoRemovalSatisfies() {
			for _, m := range tc.members {
				if tr.SatisfiedAllAfterRemove(m, tc.members) {
					t.Errorf("%s: fired, but removing %d leaves the region valid", tc.name, m)
				}
			}
		}
	}
	// The negative case is real: removing area 3 (-3) lifts the sum of
	// {12, -3} from 9 to 12, over the bound.
	tr := testColumns(t, Set{AtLeast(Sum, "A", 10)}, a, b).Compute([]int{2, 3})
	if !tr.SatisfiedAllAfterRemove(3, []int{2, 3}) {
		t.Error("removing the negative value should satisfy the SUM bound")
	}
}
