package tabu

// candItem is one candidate move (area -> target region) with its cached
// objective delta and its position in the candidate heap.
type candItem struct {
	key   moveKey
	delta float64
	// gain caches the target-side heterogeneity term of delta (only under
	// the default objective). The target's Fenwick state is unchanged since
	// the gain was computed unless the target itself mutated — and every
	// mutation of the target refreshes this item — so a refresh triggered by
	// a donor-side change reuses the gain bitwise instead of re-querying.
	gain float64
	pos  int
}

// candHeap is an indexed 4-ary min-heap of candidate moves ordered by
// (delta, area, to). The total order makes the pop sequence deterministic
// for a given item set regardless of insertion history or heap shape, which
// keeps move selection reproducible run-to-run. Items track their position
// so removal and re-keying cost O(log n) without scanning.
//
// Each entry carries its item's sort key inline, so a sift compares entries
// of the heap array itself and dereferences an item only to record its new
// position: the refresh re-keys about 40 items per move, and comparisons
// through two item pointers each were a cache miss apiece. Four children
// per node halve the depth, and a node's children share one or two cache
// lines.
type candHeap struct {
	ents []heapEnt
	// pushes/pops profile the heap churn (pops include removals); plain
	// ints, read into Stats.Counters at the end of a search.
	pushes, pops int64
}

// heapEnt is one heap slot: a copy of the item's delta and its (area, to)
// key packed as area<<32 | to, which orders exactly as the pair does for
// non-negative ids below 2^32.
type heapEnt struct {
	delta float64
	key   uint64
	it    *candItem
}

// arity is the number of children per heap node.
const arity = 4

func (h *candHeap) len() int { return len(h.ents) }

// min returns the smallest item without removing it, or nil when empty.
func (h *candHeap) min() *candItem {
	if len(h.ents) == 0 {
		return nil
	}
	return h.ents[0].it
}

func (h *candHeap) push(it *candItem) {
	h.pushes++
	it.pos = len(h.ents)
	h.ents = append(h.ents, heapEnt{delta: it.delta, key: uint64(it.key.area)<<32 | uint64(uint32(it.key.to)), it: it})
	h.up(it.pos)
}

func (h *candHeap) pop() *candItem {
	it := h.ents[0].it
	h.removeAt(0)
	return it
}

// remove deletes the item from the heap; the item must be present.
func (h *candHeap) remove(it *candItem) {
	h.removeAt(it.pos)
}

// fix restores heap order after the item's delta changed in place — one
// sift instead of the remove-plus-push pair, halving the churn of candidate
// refreshes whose (area, target) keys survive a move. The key is unchanged,
// so the entry can only move toward the root when the delta fell and only
// toward the leaves when it rose.
func (h *candHeap) fix(it *candItem) {
	e := &h.ents[it.pos]
	if it.delta < e.delta {
		e.delta = it.delta
		h.up(it.pos)
	} else {
		e.delta = it.delta
		h.down(it.pos)
	}
}

func (h *candHeap) removeAt(i int) {
	h.pops++
	last := len(h.ents) - 1
	h.ents[i].it.pos = -1
	if i != last {
		h.ents[i] = h.ents[last]
		h.ents[i].it.pos = i
	}
	h.ents = h.ents[:last]
	if i < last {
		if !h.down(i) {
			h.up(i)
		}
	}
}

// entLess is the heap order: delta first, then the deterministic key order.
func entLess(a, b *heapEnt) bool {
	if a.delta != b.delta {
		return a.delta < b.delta
	}
	return a.key < b.key
}

// up sifts entry i toward the root: the entry is held aside while the
// parents above it move down, and each moved entry's item learns its new
// position.
func (h *candHeap) up(i int) {
	e := h.ents[i]
	for i > 0 {
		parent := (i - 1) / arity
		if !entLess(&e, &h.ents[parent]) {
			break
		}
		h.ents[i] = h.ents[parent]
		h.ents[i].it.pos = i
		i = parent
	}
	h.ents[i] = e
	e.it.pos = i
}

// down sifts entry i toward the leaves, reporting whether it moved.
func (h *candHeap) down(i int) bool {
	start := i
	n := len(h.ents)
	e := h.ents[i]
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		smallest := first
		for c := first + 1; c < min(first+arity, n); c++ {
			if entLess(&h.ents[c], &h.ents[smallest]) {
				smallest = c
			}
		}
		if !entLess(&h.ents[smallest], &e) {
			break
		}
		h.ents[i] = h.ents[smallest]
		h.ents[i].it.pos = i
		i = smallest
	}
	h.ents[i] = e
	e.it.pos = i
	return i > start
}
