package region

import (
	"math"
	"sync"

	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/graph"
)

// Shared bundles the immutable per-dataset solver state — dissimilarity
// matrix, heterogeneity rank kernel, contiguity graph — together with
// concurrency-safe pools of the mutable scratch that partitions burn
// through (graph traversal scratch, Fenwick trees). Every partition is
// built on one. Building it once per dataset and handing it to every
// partition removes the dominant setup cost of multi-start and sharded
// solves: NewPartition builds a private Shared on every call, so it
// recomputes the matrix, and the kernel ranks once a region needs them,
// each time.
//
// A Shared is safe for concurrent use by partitions on different
// goroutines; the immutable parts are read-only and the pools are
// sync.Pools.
type Shared struct {
	ds  *data.Dataset
	g   *graph.Graph
	dis [][]float64
	krn *heteroKernel
	// exact is the HeteroExact verdict, decided once from dis.
	exact bool

	// fens pools regionFen trees across partitions; trees are returned by
	// Partition.Recycle and zeroed on reuse.
	fens sync.Pool
	// scratches pools graph traversal scratch across partitions.
	scratches sync.Pool
}

// NewShared builds the shared solver state for the dataset. The dataset's
// dissimilarity configuration must be valid; adjacency must not change
// afterwards.
func NewShared(ds *data.Dataset) (*Shared, error) {
	dis, err := ds.DissimilarityMatrix()
	if err != nil {
		return nil, err
	}
	return &Shared{
		ds:    ds,
		g:     ds.Graph(),
		dis:   dis,
		krn:   newHeteroKernel(dis),
		exact: exactDissimilarities(dis, ds.N()),
	}, nil
}

// exactDissimilarities reports whether every heterogeneity sum over the
// matrix is an exact float: every value is an integer and
// n²·attrs·max|d| < 2^52. A region's H, H(P), a move delta and every
// intermediate of the kernel's prefix-sum formula are then integers below
// 2^53 (H(P) itself is below n²·attrs·max|d|), and float addition and
// subtraction of such integers is exact in any order. NaN fails the integer
// test and ±Inf the bound. The product is compared in floats: rounding only
// sets in above 2^53, and it cannot carry a product back below 2^52.
func exactDissimilarities(dis [][]float64, n int) bool {
	var maxAbs float64
	for _, col := range dis {
		for _, v := range col {
			if v != math.Trunc(v) {
				return false
			}
			maxAbs = max(maxAbs, math.Abs(v))
		}
	}
	return float64(n)*float64(n)*float64(len(dis))*maxAbs < 1<<52
}

// Dataset returns the dataset the shared state was built from.
func (sh *Shared) Dataset() *data.Dataset { return sh.ds }

// Graph returns the contiguity graph.
func (sh *Shared) Graph() *graph.Graph { return sh.g }

// Attrs returns the number of dissimilarity attributes (matrix rows).
func (sh *Shared) Attrs() int { return len(sh.dis) }

// HeteroExact reports whether heterogeneity arithmetic on this data is exact
// (see exactDissimilarities): any two ways of summing the same region
// heterogeneities and move deltas then give the same bits, so a total kept
// up to date by applied deltas equals a fresh Partition.Heterogeneity.
// Integer-valued dissimilarities of a realistic range qualify, such as the
// census HOUSEHOLDS counts; fractional values, among them the standardized
// columns of DissimilarityAttrs, do not.
func (sh *Shared) HeteroExact() bool { return sh.exact }

// getScratch takes a traversal scratch from the pool, making a fresh one
// when the pool is empty.
func (sh *Shared) getScratch() *graph.Scratch {
	if s, _ := sh.scratches.Get().(*graph.Scratch); s != nil {
		return s
	}
	return sh.g.NewScratch()
}

// NewPartitionShared creates an empty partition backed by the shared state:
// the dissimilarity matrix and rank kernel are reused instead of rebuilt,
// and scratch/Fenwick state is drawn from (and returnable to) the shared
// pools.
func NewPartitionShared(sh *Shared, ev *constraint.Evaluator) *Partition {
	assign := make([]int, sh.ds.N())
	for i := range assign {
		assign[i] = Unassigned
	}
	return &Partition{
		ds:       sh.ds,
		g:        sh.g,
		ev:       ev,
		dis:      sh.dis,
		assign:   assign,
		nextID:   1,
		krn:      sh.krn,
		kernelOn: true,
		shared:   sh,
		scratch:  sh.getScratch(),
	}
}

// PartitionFromRegionsShared is PartitionFromRegions on shared state: it
// builds a partition from explicit member lists (ids 1..len in list order)
// without recomputing the per-dataset structures.
func PartitionFromRegionsShared(sh *Shared, ev *constraint.Evaluator, regions [][]int) (*Partition, error) {
	p := NewPartitionShared(sh, ev)
	if err := p.fillRegions(regions); err != nil {
		p.Recycle()
		return nil, err
	}
	return p, nil
}

// Recycle returns the partition's poolable state — Fenwick trees and graph
// scratch — to the Shared pools and invalidates the partition. Call it on
// partitions that lost a best-of selection or served as intermediates, so
// the next partition on the same Shared reuses their trees. The partition
// must not be used afterwards.
func (p *Partition) Recycle() {
	for _, r := range p.regs {
		if r != nil && r.fen != nil {
			p.shared.fens.Put(r.fen)
			r.fen = nil
		}
	}
	for _, f := range p.fenPool {
		p.shared.fens.Put(f)
	}
	p.fenPool = nil
	if p.scratch != nil {
		p.shared.scratches.Put(p.scratch)
		p.scratch = nil
	}
	p.regs, p.freeRegs, p.shells, p.assign, p.live = nil, nil, nil, nil, nil
	p.numRegions, p.liveOK = 0, false
}
