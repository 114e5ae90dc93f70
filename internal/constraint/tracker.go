package constraint

import (
	"fmt"
	"math"
	"slices"
)

// Evaluator binds a constraint Set to the attribute columns of a concrete
// dataset so regions can be validated without string lookups in inner loops.
type Evaluator struct {
	set  Set
	vals [][]float64 // per constraint; nil for COUNT(*)
	// nonNeg[i] reports that SUM constraint i's column holds no negative or
	// NaN value, so removing an area never raises the region's sum.
	nonNeg []bool
}

// NewEvaluator resolves every constraint attribute through lookup, which
// returns the dataset column (value per area) for an attribute name, or nil
// when the attribute does not exist.
func NewEvaluator(set Set, lookup func(attr string) []float64) (*Evaluator, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	ev := &Evaluator{set: set, vals: make([][]float64, len(set)), nonNeg: make([]bool, len(set))}
	for i, c := range set {
		if c.Agg == Count {
			continue
		}
		col := lookup(c.Attr)
		if col == nil {
			return nil, fmt.Errorf("constraint: attribute %q not found in dataset", c.Attr)
		}
		ev.vals[i] = col
		if c.Agg == Sum {
			ev.nonNeg[i] = !slices.ContainsFunc(col, func(v float64) bool { return !(v >= 0) })
		}
	}
	return ev, nil
}

// Set returns the bound constraint set.
func (ev *Evaluator) Set() Set { return ev.set }

// Len returns the number of constraints.
func (ev *Evaluator) Len() int { return len(ev.set) }

// At returns the i-th constraint.
func (ev *Evaluator) At(i int) Constraint { return ev.set[i] }

// AreaValue returns area's value of constraint i's attribute. For COUNT
// constraints it returns 1 (each area contributes one to the count).
func (ev *Evaluator) AreaValue(i, area int) float64 {
	if ev.vals[i] == nil {
		return 1
	}
	return ev.vals[i][area]
}

// Tracker maintains the aggregate state of one region incrementally:
// count, and per constraint the running sum, minimum and maximum with
// multiplicity counters so removals only trigger a recompute when the last
// copy of an extreme leaves the region.
type Tracker struct {
	ev     *Evaluator
	n      int
	sum    []float64
	min    []float64
	max    []float64
	minCnt []int
	maxCnt []int
}

// NewTracker returns an empty region tracker for the evaluator's constraints.
func (ev *Evaluator) NewTracker() *Tracker {
	return &ev.NewTrackers(1)[0]
}

// NewTrackers returns k empty region trackers whose per-constraint arrays
// share two backing allocations, for callers that hand out trackers a
// chunk at a time: construction opens a region, and so a tracker, for
// every seed area.
func (ev *Evaluator) NewTrackers(k int) []Tracker {
	m := len(ev.set)
	vals := make([]float64, 3*m*k)
	cnts := make([]int, 2*m*k)
	ts := make([]Tracker, k)
	for j := range ts {
		v, c := vals[3*m*j:3*m*(j+1)], cnts[2*m*j:2*m*(j+1)]
		ts[j] = Tracker{
			ev:     ev,
			sum:    v[:m:m],
			min:    v[m : 2*m : 2*m],
			max:    v[2*m : 3*m : 3*m],
			minCnt: c[:m:m],
			maxCnt: c[m : 2*m : 2*m],
		}
		for i := 0; i < m; i++ {
			ts[j].min[i] = math.Inf(1)
			ts[j].max[i] = math.Inf(-1)
		}
	}
	return ts
}

// Count returns the number of areas tracked.
func (t *Tracker) Count() int { return t.n }

// Add registers an area's attribute values.
func (t *Tracker) Add(area int) {
	t.n++
	for i := range t.sum {
		v := t.ev.AreaValue(i, area)
		t.sum[i] += v
		switch {
		case v < t.min[i]:
			t.min[i], t.minCnt[i] = v, 1
		case v == t.min[i]:
			t.minCnt[i]++
		}
		switch {
		case v > t.max[i]:
			t.max[i], t.maxCnt[i] = v, 1
		case v == t.max[i]:
			t.maxCnt[i]++
		}
	}
}

// Remove unregisters an area. remaining must be the region's member list
// after the removal; it is only scanned when the removed value was the last
// copy of a tracked extreme.
func (t *Tracker) Remove(area int, remaining []int) {
	t.n--
	if t.n == 0 {
		for i := range t.sum {
			t.sum[i] = 0
			t.min[i] = math.Inf(1)
			t.max[i] = math.Inf(-1)
			t.minCnt[i], t.maxCnt[i] = 0, 0
		}
		return
	}
	for i := range t.sum {
		v := t.ev.AreaValue(i, area)
		t.sum[i] -= v
		if v == t.min[i] {
			t.minCnt[i]--
			if t.minCnt[i] == 0 {
				t.recomputeMin(i, remaining)
			}
		}
		if v == t.max[i] {
			t.maxCnt[i]--
			if t.maxCnt[i] == 0 {
				t.recomputeMax(i, remaining)
			}
		}
	}
}

func (t *Tracker) recomputeMin(i int, members []int) {
	mn, cnt := math.Inf(1), 0
	for _, a := range members {
		v := t.ev.AreaValue(i, a)
		switch {
		case v < mn:
			mn, cnt = v, 1
		case v == mn:
			cnt++
		}
	}
	t.min[i], t.minCnt[i] = mn, cnt
}

func (t *Tracker) recomputeMax(i int, members []int) {
	mx, cnt := math.Inf(-1), 0
	for _, a := range members {
		v := t.ev.AreaValue(i, a)
		switch {
		case v > mx:
			mx, cnt = v, 1
		case v == mx:
			cnt++
		}
	}
	t.max[i], t.maxCnt[i] = mx, cnt
}

// Reset returns the tracker to its freshly-created empty state, keeping the
// evaluator binding and slice capacity. It lets region objects be recycled
// without reallocating their aggregate arrays.
func (t *Tracker) Reset() {
	t.n = 0
	for i := range t.sum {
		t.sum[i] = 0
		t.min[i] = math.Inf(1)
		t.max[i] = math.Inf(-1)
		t.minCnt[i], t.maxCnt[i] = 0, 0
	}
}

// Merge folds another tracker's state into t. The other tracker's region
// must be disjoint from t's.
func (t *Tracker) Merge(o *Tracker) {
	t.n += o.n
	for i := range t.sum {
		t.sum[i] += o.sum[i]
		switch {
		case o.min[i] < t.min[i]:
			t.min[i], t.minCnt[i] = o.min[i], o.minCnt[i]
		case o.min[i] == t.min[i]:
			t.minCnt[i] += o.minCnt[i]
		}
		switch {
		case o.max[i] > t.max[i]:
			t.max[i], t.maxCnt[i] = o.max[i], o.maxCnt[i]
		case o.max[i] == t.max[i]:
			t.maxCnt[i] += o.maxCnt[i]
		}
	}
}

// Clone returns an independent copy of the tracker.
func (t *Tracker) Clone() *Tracker {
	c := t.ev.NewTracker()
	c.CopyFrom(t)
	return c
}

// CopyFrom overwrites t with o's state, as Clone would produce it, without
// allocating. Both trackers must come from the same evaluator.
func (t *Tracker) CopyFrom(o *Tracker) {
	t.n = o.n
	copy(t.sum, o.sum)
	copy(t.min, o.min)
	copy(t.max, o.max)
	copy(t.minCnt, o.minCnt)
	copy(t.maxCnt, o.maxCnt)
}

// AppendState appends the tracker's exact aggregate state to dst — the
// count, then per constraint the sum, minimum and maximum as IEEE-754 bits
// and the two extreme multiplicities — and returns the extended slice. Two
// trackers of one evaluator append equal words exactly when every later
// query and update would behave identically on them.
func (t *Tracker) AppendState(dst []uint64) []uint64 {
	dst = append(dst, uint64(t.n))
	for i := range t.sum {
		dst = append(dst, math.Float64bits(t.sum[i]), math.Float64bits(t.min[i]),
			math.Float64bits(t.max[i]), uint64(t.minCnt[i]), uint64(t.maxCnt[i]))
	}
	return dst
}

// Value returns the current aggregate value of constraint i. For an empty
// region SUM and COUNT are 0, AVG is NaN, MIN is +Inf and MAX is -Inf.
func (t *Tracker) Value(i int) float64 {
	switch t.ev.set[i].Agg {
	case Sum:
		return t.sum[i]
	case Count:
		return float64(t.n)
	case Avg:
		if t.n == 0 {
			return math.NaN()
		}
		return t.sum[i] / float64(t.n)
	case Min:
		return t.min[i]
	case Max:
		return t.max[i]
	default:
		return math.NaN()
	}
}

// ValueAfterAdd returns the aggregate value of constraint i if area were
// added, without mutating the tracker.
func (t *Tracker) ValueAfterAdd(i, area int) float64 {
	v := t.ev.AreaValue(i, area)
	switch t.ev.set[i].Agg {
	case Sum:
		return t.sum[i] + v
	case Count:
		return float64(t.n + 1)
	case Avg:
		return (t.sum[i] + v) / float64(t.n+1)
	case Min:
		return math.Min(t.min[i], v)
	case Max:
		return math.Max(t.max[i], v)
	default:
		return math.NaN()
	}
}

// Satisfied reports whether constraint i currently holds.
func (t *Tracker) Satisfied(i int) bool {
	if t.n == 0 {
		return false
	}
	return t.ev.set[i].Contains(t.Value(i))
}

// SatisfiedAll reports whether every constraint holds. Empty regions never
// satisfy a non-empty constraint set; with no constraints any non-empty
// region is valid.
func (t *Tracker) SatisfiedAll() bool {
	if t.n == 0 {
		return false
	}
	for i := range t.ev.set {
		if !t.ev.set[i].Contains(t.Value(i)) {
			return false
		}
	}
	return true
}

// SatisfiedAllAfterAdd reports whether every constraint would hold if the
// area were added.
func (t *Tracker) SatisfiedAllAfterAdd(area int) bool {
	for i := range t.ev.set {
		if !t.ev.set[i].Contains(t.ValueAfterAdd(i, area)) {
			return false
		}
	}
	return true
}

// SatisfiedAllAfterMerge reports whether every constraint would hold on the
// union of t's and o's regions.
func (t *Tracker) SatisfiedAllAfterMerge(o *Tracker) bool {
	n := t.n + o.n
	if n == 0 {
		return false
	}
	for i, c := range t.ev.set {
		var v float64
		switch c.Agg {
		case Sum:
			v = t.sum[i] + o.sum[i]
		case Count:
			v = float64(n)
		case Avg:
			v = (t.sum[i] + o.sum[i]) / float64(n)
		case Min:
			v = math.Min(t.min[i], o.min[i])
		case Max:
			v = math.Max(t.max[i], o.max[i])
		}
		if !c.Contains(v) {
			return false
		}
	}
	return true
}

// Compute builds a tracker directly from a member list; it is the naive
// reference used by tests and by bulk region construction.
func (ev *Evaluator) Compute(members []int) *Tracker {
	t := ev.NewTracker()
	for _, a := range members {
		t.Add(a)
	}
	return t
}
