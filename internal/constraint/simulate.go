package constraint

import "math"

// ValueAfterRemove returns the aggregate value of constraint i if area were
// removed, without mutating the tracker. members must be the current member
// list (including area). When the removed value is the last copy of a
// tracked extreme the remaining members are scanned, otherwise the
// computation is O(1).
func (t *Tracker) ValueAfterRemove(i, area int, members []int) float64 {
	v := t.ev.AreaValue(i, area)
	n := t.n - 1
	switch t.ev.set[i].Agg {
	case Sum:
		return t.sum[i] - v
	case Count:
		return float64(n)
	case Avg:
		if n == 0 {
			return math.NaN()
		}
		return (t.sum[i] - v) / float64(n)
	case Min:
		if n == 0 {
			return math.Inf(1)
		}
		if v != t.min[i] || t.minCnt[i] > 1 {
			return t.min[i]
		}
		mn := math.Inf(1)
		skipped := false
		for _, a := range members {
			if a == area && !skipped {
				skipped = true
				continue
			}
			if w := t.ev.AreaValue(i, a); w < mn {
				mn = w
			}
		}
		return mn
	case Max:
		if n == 0 {
			return math.Inf(-1)
		}
		if v != t.max[i] || t.maxCnt[i] > 1 {
			return t.max[i]
		}
		mx := math.Inf(-1)
		skipped := false
		for _, a := range members {
			if a == area && !skipped {
				skipped = true
				continue
			}
			if w := t.ev.AreaValue(i, a); w > mx {
				mx = w
			}
		}
		return mx
	default:
		return math.NaN()
	}
}

// SatisfiedAllAfterRemove reports whether every constraint would hold after
// removing the area. An emptied region never satisfies.
func (t *Tracker) SatisfiedAllAfterRemove(area int, members []int) bool {
	if t.n <= 1 {
		return false
	}
	for i := range t.ev.set {
		if !t.ev.set[i].Contains(t.ValueAfterRemove(i, area, members)) {
			return false
		}
	}
	return true
}

// NoRemovalSatisfies reports, from the aggregates alone, that
// SatisfiedAllAfterRemove is false for every member: the region holds at
// most one area, or sits below a COUNT lower bound, or below a SUM lower
// bound whose column the evaluator found non-negative (removing an area
// can only lower such a sum). A false result proves nothing.
func (t *Tracker) NoRemovalSatisfies() bool {
	if t.n <= 1 {
		return true
	}
	for i, c := range t.ev.set {
		switch {
		case c.Agg == Count && float64(t.n) < c.Lower:
			return true
		case c.Agg == Sum && t.ev.nonNeg[i] && t.sum[i] < c.Lower:
			return true
		}
	}
	return false
}

// UpperSafeAfterAdd reports whether adding the area keeps the region inside
// every constraint's "hard" side: the full range for extrema and centrality
// constraints, but only the upper bound for counting constraints (whose
// lower bounds are satisfied later by the monotonic-adjustment step).
func (t *Tracker) UpperSafeAfterAdd(area int) bool {
	for i, c := range t.ev.set {
		v := t.ValueAfterAdd(i, area)
		switch c.Agg {
		case Sum, Count:
			if v > c.Upper {
				return false
			}
		default:
			if !c.Contains(v) {
				return false
			}
		}
	}
	return true
}

// UpperSafeAfterMerge is UpperSafeAfterAdd for region unions: the merged
// region must satisfy extrema and centrality ranges fully and counting
// upper bounds, while counting lower bounds may still be pending.
func (t *Tracker) UpperSafeAfterMerge(o *Tracker) bool {
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
		switch c.Agg {
		case Sum, Count:
			if v > c.Upper {
				return false
			}
		default:
			if !c.Contains(v) {
				return false
			}
		}
	}
	return true
}
