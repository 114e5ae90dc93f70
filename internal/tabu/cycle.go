package tabu

import (
	"math"
	"slices"

	"emp/internal/region"
)

// This file implements the kernel searcher's exact cycle fast-forward.
//
// The search stops only after MaxNoImprove consecutive moves that fail to
// improve the best objective, and the solver sets that to n, so every run
// ends with a long non-improving stretch that is then undone. Such a stretch
// typically settles into a short cycle: the same few areas move back and
// forth and the whole search state repeats exactly. The search is
// deterministic, so once the state at two points one period apart is proven
// equal, every further period would make the same moves, do the same work
// and end in the same state. The searcher then accounts for the remaining
// full periods (moves, counters, move log) without executing them, runs the
// last partial period normally, and on the final revert replays the skipped
// periods' undo moves, so the partition ends bit for bit where a full run
// ends. This is the repetition detection of reactive tabu search (Battiti
// and Tecchiolli, 1994), used only to skip work: the moves, the stopping
// rule and every reported statistic are those of the full run.

// zobrist is the hash key of an area sitting in a region: a splitmix64
// finalizer of the pair. The searcher XORs each move's old and new key into
// a running hash, so equal assignments hash equal.
func zobrist(area, reg int) uint64 {
	z := uint64(area)<<32 ^ uint64(uint32(reg)) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// cycles is the fast-forward state of one Improve run.
type cycles struct {
	// hash is the Zobrist hash of the assignment, relative to the start.
	hash uint64

	// Brent checkpoint of the current non-improving stretch: the hash saved
	// at the last power-of-two stretch position. spent marks a window that
	// already proposed a period, so a rejected proposal is not retried
	// until the next checkpoint.
	mark    uint64
	markPos int
	spent   bool

	// The pending proof: at stretch position due, the state is compared
	// with snap, taken period moves earlier. regions, paths and areas fix
	// the footprint the period can read or write; base holds the counters
	// at the snapshot.
	due, period int
	regions     []int
	paths       []int
	areas       []int
	snap, now   []uint64
	base        Counters

	// The fast-forward, once proven: q full periods were skipped at stretch
	// position at. skipped is their extrapolated work.
	at, q   int
	skipped Counters
}

// restart begins a new non-improving stretch: the checkpoint, any pending
// proof and the fast-forward record belong to the previous one.
func (c *cycles) restart() {
	c.markPos, c.spent, c.due, c.q = 0, false, 0, 0
}

// propose observes the hash after the stretch's len(undo)-th move and
// returns a period worth proving, or 0. Equal hashes propose a period only
// when the last tenure moves also equal the tenure moves before the
// checkpoint (both ends carry the same tabu list), which costs O(tenure) on
// hash matches alone. Brent's checkpoints at power-of-two positions then
// find an eventually periodic stretch with prefix μ and period λ within
// O(μ+λ+tenure) positions, with no map and no allocation per move. No
// period is proposed while a proof is pending, and at most one per
// checkpoint window.
func (c *cycles) propose(undo []appliedMove, tenure int) int {
	pos := len(undo)
	period := 0
	if c.due == 0 && !c.spent && c.markPos >= tenure && c.hash == c.mark &&
		slices.Equal(undo[pos-tenure:], undo[c.markPos-tenure:c.markPos]) {
		period = pos - c.markPos
	}
	if pos&(pos-1) == 0 {
		c.mark, c.markPos, c.spent = c.hash, pos, false
	}
	if period > 0 {
		c.spent = true
	}
	return period
}

// skipCycles runs the fast-forward after the stretch's len(undo)-th
// non-improving move of iteration iter, with left moves to go before the
// stopping rule. It completes a pending proof that has come due, proposes
// and starts a new one, and once a cycle is proven, records the skipped
// periods and returns how many moves they hold (0 otherwise).
func (s *searcher) skipCycles(c *cycles, undo []appliedMove, iter, tenure, left int) int {
	if c.q > 0 {
		return 0 // the stretch's periods are already skipped
	}
	pos := len(undo)
	if c.due == pos {
		c.due = 0
		// The period just run must repeat the moves the footprint was taken
		// from, and the state must be back where it was.
		l := c.period
		if slices.Equal(undo[pos-l:], undo[pos-2*l:pos-l]) {
			c.now = s.appendState(c.now[:0], c, iter+1)
			if slices.Equal(c.now, c.snap) {
				c.at, c.q = pos, left/l
				c.skipped.addPeriods(s.counters(), c.base, int64(c.q))
				return c.q * l
			}
		}
	}
	// A proof costs one period, so it pays only when a full period remains
	// after it.
	if l := c.propose(undo, tenure); l > 0 && 2*l <= left {
		s.startProof(c, undo, l, tenure, iter+1)
	}
	return 0
}

// startProof snapshots the state the next l moves can read or write. The
// footprint is complete: every region a move of the window touched (the
// last max(l, tenure) moves — so it covers the proposed period and every
// area that still carries a live tabu entry), and every member of those
// regions and every neighbour of one. A move only mutates its two regions,
// and its refresh only reads and writes their members and the members'
// neighbours; the proof later checks that the period repeated the window's
// moves, so it stayed inside this footprint. Outside it, nothing the
// period can observe changes, except that a refresh may rebuild a
// neighbouring region's removability cache, and that is compared through
// each footprint area's region.
func (s *searcher) startProof(c *cycles, undo []appliedMove, l, tenure, nextIter int) {
	p := s.p
	window := undo[len(undo)-max(l, tenure):]
	c.regions, c.paths = c.regions[:0], c.paths[:0]
	for _, m := range window {
		c.regions = append(c.regions, m.from, m.to)
		c.paths = append(c.paths, m.area)
	}
	slices.Sort(c.regions)
	c.regions = slices.Compact(c.regions)
	slices.Sort(c.paths)
	c.paths = slices.Compact(c.paths)
	// The refresh stamps dedupe the footprint: refreshAround takes a fresh
	// stamp on every call, so the marks left here never alias its own.
	s.stamp++
	c.areas = c.areas[:0]
	for _, id := range c.regions {
		for _, m := range p.Region(id).Members {
			if s.affStamp[m] != s.stamp {
				s.affStamp[m] = s.stamp
				c.areas = append(c.areas, m)
			}
			for _, nb := range p.Graph().Neighbors(m) {
				if v := int(nb); s.affStamp[v] != s.stamp {
					s.affStamp[v] = s.stamp
					c.areas = append(c.areas, v)
				}
			}
		}
	}
	c.snap = s.appendState(c.snap[:0], c, nextIter)
	c.base = s.counters()
	c.due, c.period = len(undo)+l, l
}

// appendState appends the exact search state of the footprint to dst. It
// holds the running objective; each footprint region's exact state
// (region.AppendRegionState); and for each footprint area its assignment,
// the validity of its region's removability cache, its candidates as
// (target, delta, gain) ordered by target, its live tabu entries as
// (target, iterations left before nextIter's check expires them) ordered by
// target, and its donor cache reduced to what a refresh can read. Absolute
// iteration numbers and region versions are left out: only their distances
// steer the search.
func (s *searcher) appendState(dst []uint64, c *cycles, nextIter int) []uint64 {
	p := s.p
	dst = append(dst, math.Float64bits(s.cur))
	for _, id := range c.regions {
		dst = p.AppendRegionState(dst, id, c.paths)
	}
	for _, a := range c.areas {
		reg := p.Assignment(a)
		var r *region.Region
		remValid := uint64(0)
		if reg != region.Unassigned {
			r = p.Region(reg)
			if reg < len(s.remEpoch) && s.remEpoch[reg] == r.Version() {
				remValid = 1
			}
		}
		dst = append(dst, uint64(int64(reg)), remValid, uint64(len(s.byArea[a])))
		start := len(dst)
		for _, it := range s.byArea[a] {
			dst = append(dst, uint64(it.key.to), math.Float64bits(it.delta), math.Float64bits(it.gain))
		}
		sortTuples(dst[start:], 3)
		count := len(dst)
		dst = append(dst, 0)
		start = len(dst)
		for _, e := range s.tabuByArea[a] {
			if e.until > nextIter {
				dst = append(dst, uint64(e.to), uint64(e.until-nextIter))
			}
		}
		dst[count] = uint64((len(dst) - start) / 2)
		sortTuples(dst[start:], 2)
		dst = s.appendDonor(dst, a, r)
	}
	return dst
}

// appendDonor appends area a's donor cache as the refresh reads it, given
// its current region r (nil when unassigned): current (with the feasibility
// verdict and loss), exactly one version behind with a feasible verdict
// (refreshArea adjusts that loss by one pair term), or stale (recomputed on
// the next read, like a missing entry).
func (s *searcher) appendDonor(dst []uint64, a int, r *region.Region) []uint64 {
	ent := s.donor[a]
	if r != nil && ent.reg == r.ID {
		switch r.Version() - ent.ver {
		case 0:
			feas := uint64(0)
			if ent.feas {
				feas = 1
			}
			return append(dst, 1, feas, math.Float64bits(ent.loss))
		case 1:
			if ent.feas {
				return append(dst, 2, math.Float64bits(ent.loss))
			}
		}
	}
	return append(dst, 0)
}

// sortTuples insertion-sorts consecutive width-word tuples by their first
// word. The lists are one area's candidates or tabu entries: a handful of
// tuples with distinct first words.
func sortTuples(words []uint64, width int) {
	for i := width; i < len(words); i += width {
		for j := i; j > 0 && words[j] < words[j-width]; j -= width {
			for k := 0; k < width; k++ {
				words[j+k], words[j-width+k] = words[j-width+k], words[j+k]
			}
		}
	}
}

// revert undoes the non-improving stretch in undo in the order a full run
// would: the moves executed after the fast-forward, then the q skipped
// periods (each the undo of the proven period), then the moves before it.
// Reverting is MoveArea alone, so the partition's member orders and
// heterogeneity bits end exactly as a full run leaves them.
func (c *cycles) revert(p *region.Partition, undo []appliedMove) {
	at := len(undo)
	if c.q > 0 {
		at = c.at
	}
	undoMoves(p, undo[at:])
	for k := 0; k < c.q; k++ {
		undoMoves(p, undo[at-c.period:at])
	}
	undoMoves(p, undo[:at])
}

// undoMoves reverts the moves in reverse order.
func undoMoves(p *region.Partition, moves []appliedMove) {
	for i := len(moves) - 1; i >= 0; i-- {
		p.MoveArea(moves[i].area, moves[i].from)
	}
}
