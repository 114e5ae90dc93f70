// Package prep builds prepared-dataset artifacts: the immutable,
// shareable per-dataset solver state that every solve on a dataset would
// otherwise recompute — the scaled dissimilarity matrix, the heterogeneity
// kernel's sorted rank arrays (built at the first Fenwick build of any of
// its partitions), the CSR contiguity graph, the component and cut shard
// plans, and the shared pools of mutable scratch (graph traversal state,
// Fenwick trees) that partitions draw from and return to.
//
// Every solve runs on an artifact. A caller that solves a dataset more than
// once builds it with New (typically at cache-admission time in a server, or
// at the top of a benchmark) and hands it to the solver via
// fact.Config.Prepared; a solve without one prepares its own. Multi-start
// construction iterations, shard sub-solves and repeated requests on the
// same dataset then share one copy of the derived structures instead of
// rebuilding them per partition.
//
// Everything reachable from an Artifact is either immutable or internally
// synchronized; an Artifact is safe for concurrent use by any number of
// solves.
package prep

import (
	"sync"

	"emp/internal/data"
	"emp/internal/region"
	"emp/internal/shard"
)

// Artifact is the prepared form of one dataset. Zero-value Artifacts are
// invalid; use New.
type Artifact struct {
	ds     *data.Dataset
	shared *region.Shared
	cost   int64

	// The component decomposition (and one sub-artifact per component) is
	// built lazily on first Plan call: single-component datasets never pay
	// for it, and sharded solves build it exactly once.
	planOnce sync.Once
	plan     *shard.Plan
	subs     []*Artifact
	planErr  error

	// Cut decompositions are keyed by shard count: the same dataset can be
	// solved with different cut_shards values, each plan built exactly once.
	cutMu   sync.Mutex
	cutPlan map[int]*cutEntry
}

// cutEntry is one memoized cut decomposition.
type cutEntry struct {
	once sync.Once
	plan *shard.Plan
	subs []*Artifact
	err  error
}

// New prepares the dataset: it builds the shared solver state (dissimilarity
// matrix, rank kernel, CSR graph, scratch pools). The kernel's rank order
// and the shard plans are built on first use. The dataset must be fully
// constructed and is treated as immutable from here on.
func New(ds *data.Dataset) (*Artifact, error) {
	sh, err := region.NewShared(ds)
	if err != nil {
		return nil, err
	}
	return &Artifact{ds: ds, shared: sh, cost: cost(ds, sh.Attrs())}, nil
}

// Dataset returns the dataset the artifact was prepared from.
func (a *Artifact) Dataset() *data.Dataset { return a.ds }

// Shared returns the shared solver state for region.NewPartitionShared and
// friends.
func (a *Artifact) Shared() *region.Shared { return a.shared }

// Cost approximates the resident bytes of the artifact (dataset included),
// for byte-budgeted caches.
func (a *Artifact) Cost() int64 { return a.cost }

// Plan returns the connected-component decomposition of the dataset and one
// prepared sub-artifact per component, building both on first call. The
// sub-artifact at index i is prepared from Plan.Shards[i].Dataset, so shard
// sub-solves can run fully prepared.
func (a *Artifact) Plan() (*shard.Plan, []*Artifact, error) {
	a.planOnce.Do(func() {
		plan := shard.NewPlan(a.ds)
		subs := make([]*Artifact, len(plan.Shards))
		for i := range plan.Shards {
			var err error
			if subs[i], err = New(plan.Shards[i].Dataset); err != nil {
				a.planErr = err
				return
			}
		}
		a.plan, a.subs = plan, subs
	})
	return a.plan, a.subs, a.planErr
}

// CutPlan returns the k-way cut decomposition of the dataset
// (shard.NewCutPlan) and one prepared sub-artifact per shard, building both
// on the first call for each k and memoizing per k. Concurrent callers with
// the same k share one build.
func (a *Artifact) CutPlan(k int) (*shard.Plan, []*Artifact, error) {
	a.cutMu.Lock()
	if a.cutPlan == nil {
		a.cutPlan = make(map[int]*cutEntry)
	}
	e := a.cutPlan[k]
	if e == nil {
		e = &cutEntry{}
		a.cutPlan[k] = e
	}
	a.cutMu.Unlock()
	e.once.Do(func() {
		plan, err := shard.NewCutPlan(a.ds, k)
		if err != nil {
			e.err = err
			return
		}
		subs := make([]*Artifact, len(plan.Shards))
		for i := range plan.Shards {
			if subs[i], err = New(plan.Shards[i].Dataset); err != nil {
				e.err = err
				return
			}
		}
		e.plan, e.subs = plan, subs
	})
	return e.plan, e.subs, e.err
}

// cost approximates resident bytes: the dataset (polygons, contiguity
// graph, columns) plus the prepared structures for attrs dissimilarity
// attributes (matrix + transposed copy at 8 bytes/value, rank arrays at 4).
// The rank arrays count even before their first-use build, so the cost is
// an upper bound that a later build never exceeds. The graph is CSR: 4
// bytes per offset and per directed edge.
func cost(ds *data.Dataset, attrs int) int64 {
	c := int64(1024)
	for i := range ds.Polygons {
		c += 24 + int64(len(ds.Polygons[i].Outer))*16
	}
	c += int64(len(ds.Cols)) * (int64(ds.N())*8 + 24)
	c += int64(attrs) * int64(ds.N()) * (8 + 8 + 4)           // vals + valsT + ranks
	c += int64(ds.N()+1)*4 + int64(ds.Graph().NumEdges())*2*4 // CSR offsets + arena
	return c
}
