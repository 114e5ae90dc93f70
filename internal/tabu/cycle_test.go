package tabu

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/geom"
	"emp/internal/region"
)

// periodicStream returns the state at stretch position k (1-based) of an
// eventually periodic sequence: mu distinct prefix states, then a cycle of
// lambda states.
func periodicStream(k, mu, lambda int) int {
	if k <= mu {
		return 1000 + k
	}
	return (k - mu - 1) % lambda
}

// feed advances the detector by one synthetic move into state x and returns
// its proposal. The move and the hash are both functions of the state, so
// the hash stream and the undo log share the sequence's prefix and period.
func feed(c *cycles, undo []appliedMove, x, tenure int) ([]appliedMove, int) {
	undo = append(undo, appliedMove{area: x, from: x + 1, to: x + 2})
	c.hash = zobrist(x, 7)
	return undo, c.propose(undo, tenure)
}

// TestProposeFindsEventualPeriod: on an eventually periodic hash stream with
// prefix μ and period λ, the first proposal is the period itself, made
// within 3(μ+λ+tenure) positions: Brent's O(μ+λ) bound, shifted by the
// tenure window the proposal also compares.
func TestProposeFindsEventualPeriod(t *testing.T) {
	for _, tc := range []struct{ mu, lambda, tenure int }{
		{0, 1, 1}, {0, 20, 10}, {5, 3, 2}, {17, 20, 10}, {100, 7, 10},
		{3, 100, 5}, {1000, 2, 10}, {64, 64, 10}, {15018, 20, 10},
	} {
		var c cycles
		var undo []appliedMove
		got, at := 0, 0
		for k := 1; k <= 10*(tc.mu+tc.lambda+tc.tenure); k++ {
			var l int
			undo, l = feed(&c, undo, periodicStream(k, tc.mu, tc.lambda), tc.tenure)
			if l > 0 {
				got, at = l, k
				break
			}
		}
		if got != tc.lambda {
			t.Errorf("μ=%d λ=%d tenure=%d: proposed period %d at %d, want %d",
				tc.mu, tc.lambda, tc.tenure, got, at, tc.lambda)
			continue
		}
		if bound := 3 * (tc.mu + tc.lambda + tc.tenure); at > bound {
			t.Errorf("μ=%d λ=%d tenure=%d: proposed at position %d, want <= %d",
				tc.mu, tc.lambda, tc.tenure, at, bound)
		}
	}
}

// TestProposeOncePerWindow: a proposal that is not proven is not retried
// in the same power-of-two window; the next checkpoint proposes it again.
// A pending proof suppresses proposals altogether.
func TestProposeOncePerWindow(t *testing.T) {
	const mu, lambda, tenure = 3, 5, 2
	var c cycles
	var undo []appliedMove
	var props []int
	for k := 1; k <= 64; k++ {
		var l int
		undo, l = feed(&c, undo, periodicStream(k, mu, lambda), tenure)
		if l > 0 {
			props = append(props, k) // rejected: no proof is started
		}
	}
	// Checkpoints 8, 16 and 32 each propose once, λ positions later; the
	// hash repeats every λ positions inside each window, but the window is
	// spent.
	if want := []int{8 + lambda, 16 + lambda, 32 + lambda}; !slices.Equal(props, want) {
		t.Errorf("proposals at %v, want %v", props, want)
	}

	c, undo = cycles{}, nil
	for k := 1; k <= 64; k++ {
		var l int
		undo, l = feed(&c, undo, periodicStream(k, mu, lambda), tenure)
		if l > 0 {
			t.Fatalf("proposal at %d while a proof is pending", k)
		}
		c.due = 1 << 30 // a proof that never comes due
	}
}

// TestProposeTenureMismatchKeepsWindow: a hash match whose last tenure
// moves differ from the ones before the checkpoint (the same assignment
// reached with a different tabu list) is no proposal, and does not spend
// the window: the true period is still proposed in it.
func TestProposeTenureMismatchKeepsWindow(t *testing.T) {
	const tenure = 2
	var c cycles
	var undo []appliedMove
	move := func(area, h int) int {
		undo = append(undo, appliedMove{area: area})
		c.hash = uint64(h)
		return c.propose(undo, tenure)
	}
	for k := 1; k <= 8; k++ {
		move(k, 100+k) // checkpoint at 8, hash 108
	}
	if l := move(50, 108); l != 0 {
		t.Fatalf("tenure mismatch proposed period %d", l)
	}
	if l := move(7, 200); l != 0 {
		t.Fatalf("hash mismatch proposed period %d", l)
	}
	if l := move(8, 108); l != 3 {
		t.Fatalf("proposed period %d after a tenure mismatch, want 3", l)
	}
}

// TestRevertReplaysSkippedPeriods: the final revert undoes the skipped
// periods move by move, in the order a full run reverts them. Undoing a
// period need not be the identity even when running it is: the period here
// moves c out of region {c, d} and straight back, then d, which restores
// both member orders; undoing it once swaps c and d. The revert must make
// exactly the MoveArea calls of the full run's revert (the partition's
// heterogeneity-evaluation count tells them apart) and leave every member
// order as that revert does.
func TestRevertReplaysSkippedPeriods(t *testing.T) {
	polys := geom.Lattice(geom.LatticeOptions{Cols: 5, Rows: 1})
	ds := data.FromPolygons("line", polys, geom.Rook)
	if err := ds.AddColumn("D", []float64{1, 2, 4, 8, 16}); err != nil {
		t.Fatal(err)
	}
	ds.Dissimilarity = "D"
	ev, err := constraint.NewEvaluator(constraint.Set{constraint.AtLeast(constraint.Count, "", 1)}, ds.Column)
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*region.Partition, []int) {
		p, err := region.NewPartition(ds, ev)
		if err != nil {
			t.Fatal(err)
		}
		return p, []int{p.NewRegion(0, 1).ID, p.NewRegion(3, 2).ID, p.NewRegion(4).ID}
	}
	apply := func(p *region.Partition, moves []appliedMove) {
		for _, m := range moves {
			p.MoveArea(m.area, m.to)
		}
	}
	for q := 1; q <= 3; q++ {
		for r := 0; r < 4; r++ {
			full, ids := build()
			short, _ := build()
			r1, r2, r3 := ids[0], ids[1], ids[2]
			prefix := []appliedMove{{area: 1, from: r1, to: r3}, {area: 1, from: r3, to: r1}}
			period := []appliedMove{{3, r2, r1}, {3, r1, r2}, {2, r2, r1}, {2, r1, r2}}
			tail := period[:r]
			// The full run makes 1+q periods; the fast-forwarded one runs
			// the proven period, skips q and runs the tail.
			fullUndo := append([]appliedMove(nil), prefix...)
			for k := 0; k <= q; k++ {
				fullUndo = append(fullUndo, period...)
			}
			fullUndo = append(fullUndo, tail...)
			shortUndo := append(append(append([]appliedMove(nil), prefix...), period...), tail...)
			apply(full, fullUndo)
			apply(short, shortUndo)
			for _, id := range ids {
				if !slices.Equal(full.Region(id).Members, short.Region(id).Members) {
					t.Fatalf("q=%d r=%d: the period is not a cycle: region %d %v vs %v",
						q, r, id, full.Region(id).Members, short.Region(id).Members)
				}
			}
			fullBefore, shortBefore := full.Stats().NaiveScans, short.Stats().NaiveScans
			undoMoves(full, fullUndo)
			c := cycles{at: len(prefix) + len(period), period: len(period), q: q}
			c.revert(short, shortUndo)
			if f, s := full.Stats().NaiveScans-fullBefore, short.Stats().NaiveScans-shortBefore; f != s {
				t.Errorf("q=%d r=%d: the revert made %d evaluations, a full run's %d", q, r, s, f)
			}
			for _, id := range ids {
				if !slices.Equal(full.Region(id).Members, short.Region(id).Members) {
					t.Errorf("q=%d r=%d: region %d reverts to %v, a full run to %v",
						q, r, id, short.Region(id).Members, full.Region(id).Members)
				}
			}
		}
	}
}

// TestCycleSnapshotSeesFootprint: the proof's state snapshot changes when
// any part of the footprint's search state changes — the running objective,
// a region's heterogeneity or member order, a candidate's target, delta or
// gain, a live tabu entry or the distance to its expiry, a donor cache
// entry, or whether the partition's removability verdicts are current (for
// a footprint region or a neighbouring one) — and returns to equal when it
// is restored.
func TestCycleSnapshotSeesFootprint(t *testing.T) {
	// A 12x12 lattice in nine 4x4 blocks: enough regions that some lie
	// outside the footprint of a few moves.
	const side, block = 12, 4
	ds := data.FromPolygons("blocks", geom.Lattice(geom.LatticeOptions{Cols: side, Rows: side}), geom.Rook)
	rng := rand.New(rand.NewSource(3))
	dis := make([]float64, side*side)
	for i := range dis {
		dis[i] = float64(rng.Intn(100))
	}
	if err := ds.AddColumn("D", dis); err != nil {
		t.Fatal(err)
	}
	ds.Dissimilarity = "D"
	ev, err := constraint.NewEvaluator(constraint.Set{constraint.AtLeast(constraint.Count, "", 1)}, ds.Column)
	if err != nil {
		t.Fatal(err)
	}
	p, err := region.NewPartition(ds, ev)
	if err != nil {
		t.Fatal(err)
	}
	members := make([][]int, (side/block)*(side/block))
	for a := 0; a < side*side; a++ {
		row, col := a/side, a%side
		b := (row/block)*(side/block) + col/block
		members[b] = append(members[b], a)
	}
	for _, m := range members {
		p.NewRegion(m...)
	}
	s := newSearcher(p, Heterogeneity{}, nil)
	s.cur = s.obj.Total(p)
	const tenure, moves = 3, 6
	var undo []appliedMove
	for iter := 1; iter <= moves; iter++ {
		it, ok := s.pickMove(iter, math.Inf(-1))
		if !ok {
			t.Fatal("no move to make")
		}
		from := p.Assignment(it.key.area)
		p.MoveArea(it.key.area, it.key.to)
		s.cur += it.delta
		undo = append(undo, appliedMove{area: it.key.area, from: from, to: it.key.to})
		s.setTabu(it.key.area, from, iter+tenure)
		s.refreshAround(it.key.area, from, it.key.to)
	}
	var c cycles
	const next = moves + 1
	s.startProof(&c, undo, 2, tenure, next)
	same := func() bool { return slices.Equal(s.appendState(nil, &c, next), c.snap) }
	if !same() {
		t.Fatal("the snapshot differs from the unchanged state")
	}
	if slices.Equal(s.appendState(nil, &c, next+1), c.snap) {
		t.Error("the distance to tabu expiry is not seen")
	}
	find := func(what string, ok func(a int) bool) int {
		for _, a := range c.areas {
			if ok(a) {
				return a
			}
		}
		t.Fatalf("no footprint area with %s", what)
		return -1
	}
	inRegions := func(reg int) bool { return slices.Contains(c.regions, reg) }
	cand := find("candidates", func(a int) bool { return len(s.area[a].cands) > 0 })
	tabued := find("a live tabu entry", func(a int) bool {
		for _, e := range s.tabuByArea[a] {
			if e.until > next {
				return true
			}
		}
		return false
	})
	donor := find("a current donor entry", func(a int) bool {
		r := p.Region(p.Assignment(a))
		return r != nil && s.area[a].reg == r.ID && s.area[a].ver == r.Version()
	})
	outside := find("a region outside the footprint", func(a int) bool {
		reg := p.Assignment(a)
		return reg != region.Unassigned && !inRegions(reg)
	})
	r := p.Region(c.regions[0])
	item := &s.area[cand].cands[0]
	var live *tabuEnt
	for i := range s.tabuByArea[tabued] {
		if s.tabuByArea[tabued][i].until > next {
			live = &s.tabuByArea[tabued][i]
		}
	}
	ent := &s.area[donor]
	// toggle returns a setter that flips whether the partition's
	// removability verdicts for region id are current, changing nothing else
	// the snapshot reads. CanRemove on a member makes them current. The
	// region's last member leaving and rejoining makes them stale and keeps
	// its member order and, on integer data, its heterogeneity bits, tracker
	// and Fenwick state; it advances the region's version by two, so the
	// donor entries on the region advance along.
	toggle := func(id int) func(bool) {
		return func(bool) {
			r := p.Region(id)
			if !p.RemovabilityCurrent(id) {
				p.CanRemove(r.Members[0])
				return
			}
			last := r.Members[len(r.Members)-1]
			p.RemoveArea(last)
			p.AddArea(id, last)
			for a := range s.area {
				if s.area[a].reg == id {
					s.area[a].ver += 2
				}
			}
		}
	}
	for _, tc := range []struct {
		name string
		set  func(on bool)
	}{
		{"objective", swapOn(&s.cur, s.cur+1)},
		{"region heterogeneity", swapOn(&r.Hetero, r.Hetero+1)},
		{"member order", func(bool) { r.Members[0], r.Members[1] = r.Members[1], r.Members[0] }},
		{"candidate delta", swapOn(&item.delta, item.delta+1)},
		{"candidate gain", swapOn(&item.gain, item.gain+1)},
		{"candidate target", swapOn(&item.key.to, item.key.to+1000)},
		{"candidate set", swapOn(&s.area[cand].cands, s.area[cand].cands[1:])},
		{"tabu expiry", swapOn(&live.until, live.until+1)},
		{"donor loss", swapOn(&ent.loss, ent.loss+1)},
		{"donor version", swapOn(&ent.ver, ent.ver-1)},
		{"donor feasibility", swapOn(&ent.feas, !ent.feas)},
		{"removability validity", toggle(r.ID)},
		{"neighbouring removability validity", toggle(p.Assignment(outside))},
	} {
		tc.set(true)
		if same() {
			t.Errorf("%s: a change is not seen", tc.name)
		}
		tc.set(false)
		if !same() {
			t.Fatalf("%s: the snapshot differs after the change is undone", tc.name)
		}
	}
}

// swapOn returns a setter that puts alt into *v when on and the value *v
// holds now when off.
func swapOn[T any](v *T, alt T) func(on bool) {
	orig := *v
	return func(on bool) {
		if on {
			*v = alt
		} else {
			*v = orig
		}
	}
}
