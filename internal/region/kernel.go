package region

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// This file implements the incremental heterogeneity kernel: an O(log n)
// evaluator for Σ_m |d_a − d_m| over the members m of a region, the quantity
// at the core of every heterogeneity update (AddArea, RemoveArea,
// MergeRegions' cross term, and HeteroDeltaMove).
//
// The decomposition is the standard prefix-sum split of an L1 objective:
// order all areas once per dissimilarity attribute by value (ties broken by
// area id, so ranks are unique and deterministic), and maintain per region a
// Fenwick (binary indexed) tree over that rank space storing member counts
// and member value sums. For a query value v with cnt≤/sum≤ the count and
// sum of members ranked at or below v's rank,
//
//	Σ_m |v − d_m| = v·cnt≤ − sum≤ + (sumtot − sum≤) − v·(size − cnt≤)
//
// because members with equal value contribute zero regardless of which side
// of the split they land on. One Fenwick prefix query per attribute answers
// the whole sum in O(log n) instead of O(|R|).
//
// Small regions stay on the naive O(|R|) scan — for |R| below the build
// threshold the scan is cheaper than tree traversal, and skipping trees for
// small regions bounds kernel memory to O(n²/threshold) across all regions
// (at most n/threshold regions can exceed the threshold simultaneously).
// The rank order is built on the first tree build, not with the kernel:
// construction-only solves and fine-grained constraint sets rarely grow a
// region to the threshold, so most kernels never read it.

// kernelMinRegion is the floor of the Fenwick build threshold; the effective
// threshold grows with the dataset (see heteroKernel.minFen) so at most
// ~fenRegionCap regions ever hold a tree at once.
const kernelMinRegion = 8

// fenRegionCap bounds how many regions can simultaneously exceed the build
// threshold (threshold = max(kernelMinRegion, n/fenRegionCap)).
const fenRegionCap = 128

// heteroKernel holds the immutable per-dataset rank structure. It is shared
// across Partition clones; only regionFen trees are per-partition state.
type heteroKernel struct {
	n int
	// vals[ai][area] is the (scaled) dissimilarity value.
	vals [][]float64
	// valsT holds the same values area-major (valsT[area*attrs+ai]), so a
	// pair term touches one cache line per area instead of one per attribute.
	valsT []float64
	attrs int
	// rank[ai][area] is the area's unique rank in the sorted order of
	// attribute ai (ascending value, ties by area id). It is built once,
	// by the first Fenwick build on any partition of the kernel (rankOnce);
	// every other reader works on an existing tree, so it runs after that
	// build.
	rankOnce sync.Once
	rank     [][]int32
	// minFen is the region size at which a Fenwick tree is built.
	minFen int
}

// pairDiff returns Σ_attr |d_attr(a) − d_attr(b)|, summed in attribute order
// so the result is bitwise identical to the attribute-major loop it replaces.
func (k *heteroKernel) pairDiff(a, b int) float64 {
	var total float64
	ia, ib := a*k.attrs, b*k.attrs
	for i := 0; i < k.attrs; i++ {
		total += math.Abs(k.valsT[ia+i] - k.valsT[ib+i])
	}
	return total
}

// newHeteroKernel builds the area-major value copy; the rank order waits
// for the first Fenwick build (ensureRanks).
func newHeteroKernel(dis [][]float64) *heteroKernel {
	n := 0
	if len(dis) > 0 {
		n = len(dis[0])
	}
	k := &heteroKernel{n: n, vals: dis, attrs: len(dis), minFen: kernelMinRegion}
	if t := n / fenRegionCap; t > k.minFen {
		k.minFen = t
	}
	k.valsT = make([]float64, n*len(dis))
	for ai, col := range dis {
		for area, v := range col {
			k.valsT[area*len(dis)+ai] = v
		}
	}
	return k
}

// ensureRanks builds the rank order on its first call; concurrent callers
// wait for that one build.
func (k *heteroKernel) ensureRanks() {
	k.rankOnce.Do(func() { k.rank = rankColumns(k.vals, k.n) })
}

// rankColumns returns, per column, each area's position in ascending value
// order with ties broken by area id (−0 and +0 tie). The order is strict
// and total for non-NaN values, so the ranks do not depend on the sort
// algorithm.
func rankColumns(dis [][]float64, n int) [][]int32 {
	type keyed struct {
		v  float64
		id int32
	}
	order := make([]keyed, n)
	arena := make([]int32, n*len(dis))
	rank := make([][]int32, len(dis))
	for ai, col := range dis {
		for area, v := range col {
			order[area] = keyed{v, int32(area)}
		}
		slices.SortFunc(order, func(x, y keyed) int {
			switch {
			case x.v < y.v:
				return -1
			case x.v > y.v:
				return 1
			}
			return cmp.Compare(x.id, y.id)
		})
		r := arena[ai*n : (ai+1)*n : (ai+1)*n]
		for pos, e := range order {
			r[e.id] = int32(pos)
		}
		rank[ai] = r
	}
	return rank
}

// fenNode is one Fenwick tree cell: the member value sum and member count
// of the rank range the cell covers, fused into a single 16-byte struct so a
// prefix walk touches one cache line per level instead of two (the split
// cnt/sum arrays made every query traverse two parallel arrays).
type fenNode struct {
	sum float64
	cnt int32
	_   int32
}

// regionFen is one region's Fenwick index: per attribute, a tree over ranks
// holding member counts and member value sums, plus the running totals.
type regionFen struct {
	size int
	tree [][]fenNode
	tot  []float64
}

// acquireFen returns a zeroed regionFen, reusing a pooled one when possible:
// first the partition-local free list, then the Shared cross-partition pool.
func (p *Partition) acquireFen() *regionFen {
	if n := len(p.fenPool); n > 0 {
		f := p.fenPool[n-1]
		p.fenPool = p.fenPool[:n-1]
		f.reset()
		p.stats.FenwickPoolReuse++
		return f
	}
	if f, _ := p.shared.fens.Get().(*regionFen); f != nil {
		f.reset()
		p.stats.FenwickPoolReuse++
		return f
	}
	k := p.krn
	f := &regionFen{
		tree: make([][]fenNode, len(k.vals)),
		tot:  make([]float64, len(k.vals)),
	}
	for ai := range k.vals {
		f.tree[ai] = make([]fenNode, k.n+1)
	}
	return f
}

// releaseFen returns a tree to the pool (nil-safe).
func (p *Partition) releaseFen(f *regionFen) {
	if f != nil {
		p.fenPool = append(p.fenPool, f)
	}
}

// reset zeroes the tree in place.
func (f *regionFen) reset() {
	f.size = 0
	for ai := range f.tree {
		t := f.tree[ai]
		for i := range t {
			t[i] = fenNode{}
		}
		f.tot[ai] = 0
	}
}

// add registers an area in the tree.
func (k *heteroKernel) add(f *regionFen, area int) {
	f.size++
	for ai := range k.vals {
		v := k.vals[ai][area]
		f.tot[ai] += v
		t := f.tree[ai]
		for i := int(k.rank[ai][area]) + 1; i < len(t); i += i & (-i) {
			t[i].cnt++
			t[i].sum += v
		}
	}
}

// remove unregisters an area from the tree.
func (k *heteroKernel) remove(f *regionFen, area int) {
	f.size--
	for ai := range k.vals {
		v := k.vals[ai][area]
		f.tot[ai] -= v
		t := f.tree[ai]
		for i := int(k.rank[ai][area]) + 1; i < len(t); i += i & (-i) {
			t[i].cnt--
			t[i].sum -= v
		}
	}
}

// appendState appends the tree's size and, per attribute, its value total
// and the (count, sum) of every cell on the update paths of the given areas.
func (k *heteroKernel) appendState(dst []uint64, f *regionFen, paths []int) []uint64 {
	dst = append(dst, uint64(f.size))
	for ai, t := range f.tree {
		dst = append(dst, math.Float64bits(f.tot[ai]))
		for _, a := range paths {
			for i := int(k.rank[ai][a]) + 1; i < len(t); i += i & (-i) {
				dst = append(dst, uint64(t[i].cnt), math.Float64bits(t[i].sum))
			}
		}
	}
	return dst
}

// query returns Σ_m Σ_attr |d_attr(area) − d_attr(m)| over the registered
// members m in O(attrs · log n). The area itself may or may not be
// registered; its self-term is zero either way.
func (k *heteroKernel) query(f *regionFen, area int) float64 {
	var total float64
	for ai := range k.vals {
		v := k.vals[ai][area]
		t := f.tree[ai]
		// Inclusive prefix over ranks <= rank(area).
		var cb int32
		var sb float64
		for i := int(k.rank[ai][area]) + 1; i > 0; i -= i & (-i) {
			cb += t[i].cnt
			sb += t[i].sum
		}
		total += v*float64(cb) - sb + (f.tot[ai] - sb) - v*float64(f.size-int(cb))
	}
	return total
}
