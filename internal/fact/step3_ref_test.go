package fact

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/geom"
	"emp/internal/region"
)

// This file keeps Step 3's swap search as it was before the swap list was
// built once per visit: pullAreasRef rebuilds and re-sorts the candidate
// list after every pull and tries every donor, and mergeForLowerBoundRef
// walks NeighborRegions. adjustCountingRef runs Step 3 on them, as the
// reference the production adjustCounting is checked against.

// adjustCountingRef is adjustCounting on the reference pull and merge.
// belowGives counts pulls whose donor sat below a SUM lower bound before
// giving, the case the donor precheck must leave alone when the column has
// negative values.
func (b *builder) adjustCountingRef(belowGives *int) {
	countIdx := b.countingIndices()
	if len(countIdx) == 0 {
		return
	}
	swapped := make([]bool, b.ds.N())
	b.noteDonors() // the production shedAreas keeps them
	for !b.stopped() {
		changed := false
		for _, id := range b.p.RegionIDs() {
			r := b.p.Region(id)
			if r == nil {
				continue
			}
			below, above := b.countingViolation(r, countIdx)
			switch {
			case above:
				if b.shedAreas(r, countIdx) {
					changed = true
				}
			case below:
				if b.pullAreasRef(r, countIdx, swapped, belowGives) {
					changed = true
				} else if b.mergeForLowerBoundRef(r) {
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

func (b *builder) pullAreasRef(r *region.Region, countIdx []int, swapped []bool, belowGives *int) bool {
	moved := false
	for !b.stopped() {
		below, _ := b.countingViolation(r, countIdx)
		if !below {
			return moved
		}
		swappedOne := false
		for _, pair := range b.swapCandidatesRef(r) {
			donor, a := int(pair>>32), int(uint32(pair))
			if swapped[a] {
				continue
			}
			nb := b.p.Region(donor)
			if !nb.Tracker.SatisfiedAllAfterRemove(a, nb.Members) || !r.Tracker.UpperSafeAfterAdd(a) {
				continue
			}
			if b.avgIdx >= 0 && !b.avgInRange(r.Tracker.ValueAfterAdd(b.avgIdx, a)) {
				continue
			}
			if !b.p.Graph().ConnectedSubsetExcluding(nb.Members, a) {
				continue
			}
			for i, c := range b.ev.Set() {
				if c.Agg == constraint.Sum && nb.Tracker.Value(i) < c.Lower {
					*belowGives++
					break
				}
			}
			b.p.MoveArea(a, r.ID)
			swapped[a] = true
			moved, swappedOne = true, true
			break
		}
		if !swappedOne {
			return moved
		}
	}
	return moved
}

func (b *builder) swapCandidatesRef(r *region.Region) []uint64 {
	var swaps []uint64
	for _, m := range r.Members {
		for _, nb := range b.g.Neighbors(m) {
			if id := b.p.Assignment(int(nb)); id != region.Unassigned && id != r.ID {
				swaps = append(swaps, uint64(id)<<32|uint64(nb))
			}
		}
	}
	slices.Sort(swaps)
	return slices.Compact(swaps)
}

func (b *builder) mergeForLowerBoundRef(r *region.Region) bool {
	for _, nbID := range b.p.NeighborRegions(r.ID) {
		nb := b.p.Region(nbID)
		if r.Tracker.UpperSafeAfterMerge(nb.Tracker) {
			b.p.MergeRegions(r.ID, nbID)
			return true
		}
	}
	return false
}

// step3Builder is newBuilder without the feasibility phase, whose SUM
// check rejects columns with negative values: areas are invalid by
// InvalidArea and seeds are marked as Analyze marks them.
func step3Builder(t *testing.T, ds *data.Dataset, set constraint.Set, seed int64) *builder {
	t.Helper()
	ev, err := constraint.NewEvaluator(set, ds.Column)
	if err != nil {
		t.Fatal(err)
	}
	n := ds.N()
	feas := &Feasibility{Feasible: true, Invalid: make([]bool, n), Seed: make([]bool, n)}
	for a := 0; a < n; a++ {
		extrema, seedOK := false, false
		for i, c := range set {
			v := ev.AreaValue(i, a)
			feas.Invalid[a] = feas.Invalid[a] || c.InvalidArea(v)
			if c.Agg.Family() == constraint.Extrema {
				extrema, seedOK = true, seedOK || c.SeedArea(v)
			}
		}
		feas.Seed[a] = !feas.Invalid[a] && (!extrema || seedOK)
	}
	p, err := region.NewPartition(ds, ev)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}.withDefaults(n)
	b := &builder{ds: ds, ev: ev, g: ds.Graph(), feas: feas, cfg: &cfg,
		rng: rand.New(rand.NewSource(seed)), p: p, avgIdx: -1}
	for i, c := range set {
		if c.Agg == constraint.Avg {
			b.avgIdx = i
			break
		}
	}
	return b
}

// partitionState renders every region in id order: id, members in order
// and the Hetero bits, so two partitions compare equal exactly when they
// are the same partition built the same way.
func partitionState(p *region.Partition) string {
	s := ""
	for _, id := range p.RegionIDs() {
		r := p.Region(id)
		s += fmt.Sprintf("%d:%v:%x;", id, r.Members, math.Float64bits(r.Hetero))
	}
	return s
}

// TestStep3MatchesReference runs Step 3 with the production swap list and
// with the reference on seeded lattices under all five aggregates and
// checks that both leave the same regions, member orders and Hetero bits.
// One family bounds the SUM of a column with negative values, where a
// donor below the bound can still give (removing a negative area raises
// its sum): the reference must see such pulls, so a precheck that skipped
// those donors would fail here.
func TestStep3MatchesReference(t *testing.T) {
	families := []struct {
		name string
		set  func(l float64) constraint.Set
	}{
		{"sum", func(l float64) constraint.Set { return constraint.Set{constraint.AtLeast(constraint.Sum, "P", l)} }},
		{"sum_negative", func(l float64) constraint.Set { return constraint.Set{constraint.AtLeast(constraint.Sum, "N", l)} }},
		{"count", func(float64) constraint.Set { return constraint.Set{constraint.New(constraint.Count, "", 4, 9)} }},
		{"avg_sum", func(l float64) constraint.Set {
			return constraint.Set{constraint.New(constraint.Avg, "E", 30, 70), constraint.AtLeast(constraint.Sum, "P", l)}
		}},
		{"min_sum", func(l float64) constraint.Set {
			return constraint.Set{constraint.AtMost(constraint.Min, "E", 40), constraint.AtLeast(constraint.Sum, "P", l)}
		}},
		{"max_sum_range", func(l float64) constraint.Set {
			return constraint.Set{constraint.AtMost(constraint.Max, "E", 90), constraint.New(constraint.Sum, "P", l, 3*l)}
		}},
		{"count_sum", func(l float64) constraint.Set {
			return constraint.Set{constraint.New(constraint.Count, "", 2, 12), constraint.AtLeast(constraint.Sum, "P", l)}
		}},
	}
	belowGives := map[string]int{}
	changed := map[string]int{}
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		cols, rows := 6+rng.Intn(9), 6+rng.Intn(9)
		polys := geom.Lattice(geom.LatticeOptions{Cols: cols, Rows: rows, Jitter: 0.2, Rng: rng})
		ds := data.FromPolygons("step3", polys, geom.Rook)
		for _, c := range []struct {
			name   string
			lo, hi int
		}{{"P", 0, 100}, {"N", -60, 100}, {"E", 0, 100}, {"D", 0, 1000}} {
			col := make([]float64, ds.N())
			for i := range col {
				col[i] = float64(c.lo + rng.Intn(c.hi-c.lo+1))
			}
			if err := ds.AddColumn(c.name, col); err != nil {
				t.Fatal(err)
			}
		}
		ds.Dissimilarity = "D"
		for _, f := range families {
			set := f.set(float64(150 + rng.Intn(200)))
			seed := rng.Int63()
			var parts [2]string
			for leg, ref := range []bool{false, true} {
				b := step3Builder(t, ds, set, seed)
				b.growRegions()
				if ref {
					before, n := partitionState(b.p), 0
					b.adjustCountingRef(&n)
					belowGives[f.name] += n
					if partitionState(b.p) != before {
						changed[f.name]++
					}
				} else {
					b.adjustCounting()
				}
				b.dissolveInfeasible()
				if err := b.p.Validate(); err != nil {
					t.Fatalf("trial %d %s ref=%v: %v", trial, f.name, ref, err)
				}
				parts[leg] = partitionState(b.p)
			}
			if parts[0] != parts[1] {
				t.Errorf("trial %d (%dx%d) %s: Step 3 differs from the reference", trial, cols, rows, f.name)
			}
		}
	}
	for _, f := range families {
		if changed[f.name] == 0 {
			t.Errorf("%s: Step 3 never changed a partition; the family tests nothing", f.name)
		}
	}
	if belowGives["sum_negative"] == 0 {
		t.Error("no donor below the SUM bound over the negative column gave an area; the case the precheck must leave alone is not covered")
	}
}
