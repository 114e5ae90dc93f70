// Package shard decomposes a regionalization instance into independent
// sub-instances, two ways. NewPlan splits by connected components: regions
// are contiguous, so they can never span components of the contiguity graph
// — each component is an independent EMP sub-instance that can be solved in
// isolation and in parallel (the same decomposition the strong-ILP p-regions
// formulations apply before solving), and the merge is exact. NewCutPlan
// generalizes that to single-component graphs: a deterministic multilevel
// partitioner slices one component into k balanced sub-instances along
// low-connectivity cuts, trading exact equivalence with the whole-graph
// solve for parallelism (the solver repairs the stitch seams afterwards;
// see docs/SHARDING.md).
//
// The package owns the pure machinery — component discovery, sub-dataset
// construction with index remapping in both directions, a bounded concurrent
// runner, and the deterministic merge of per-shard partitions back into
// global area indices. The solver-facing orchestration (running FaCT per
// shard, folding feasibility reports and telemetry) lives in internal/fact,
// which keeps this package free of solver imports.
package shard

import (
	"context"
	"fmt"
	"sync"

	"emp/internal/data"
	"emp/internal/solvecache"
)

// Shard is one connected-component sub-instance.
type Shard struct {
	// Component is the dense component id (order of lowest global area id).
	Component int
	// Dataset is the sub-dataset restricted to the component's areas, with
	// adjacency remapped to local ids 0..len(GlobalIDs)-1.
	Dataset *data.Dataset
	// GlobalIDs maps local area ids to global ones (local id i is global
	// area GlobalIDs[i]). The list is ascending.
	GlobalIDs []int
}

// ToGlobal maps a list of local area ids to global ids.
func (s *Shard) ToGlobal(local []int) []int {
	out := make([]int, len(local))
	for i, a := range local {
		out[i] = s.GlobalIDs[a]
	}
	return out
}

// Plan is the component decomposition of one dataset.
type Plan struct {
	// Shards lists the sub-instances in component order. The order is a
	// deterministic function of the dataset's adjacency alone, which is what
	// makes the merged output independent of solve concurrency.
	Shards []Shard
	// Component maps each global area id to its component id.
	Component []int
	// Local maps each global area id to its local id within its shard.
	Local []int
	// CutEdges lists the adjacency edges severed by the decomposition as
	// global (u, v) pairs with u < v, ordered ascending. Component plans
	// leave it empty — component boundaries cut nothing — while cut plans
	// (NewCutPlan) record every severed adjacency so the solver can repair
	// the stitch seams.
	CutEdges [][2]int32
}

// NewPlan decomposes the dataset into one shard per connected component.
// Single-component datasets yield a one-shard plan; callers usually skip
// sharding for those.
func NewPlan(ds *data.Dataset) *Plan {
	comp, members := ds.Graph().ComponentSlices()
	p := &Plan{Component: comp}
	p.cut(ds, members, "#")
	return p
}

// cut fills Local and Shards from Component and the per-part member lists
// (ascending global ids), cutting every shard dataset in one pass; shard c
// is named after the dataset, sep and c.
func (p *Plan) cut(ds *data.Dataset, members [][]int, sep string) {
	p.Local = make([]int, ds.N())
	for _, ids := range members {
		for local, global := range ids {
			p.Local[global] = local
		}
	}
	p.Shards = make([]Shard, len(members))
	for c, sub := range ds.Split(p.Component, p.Local, members) {
		sub.Name = fmt.Sprintf("%s%s%d", ds.Name, sep, c)
		p.Shards[c] = Shard{Component: c, Dataset: sub, GlobalIDs: members[c]}
	}
}

// MergeRegions concatenates per-shard region member lists (given in local
// ids) into global-id member lists, in shard order. perShard must be exactly
// parallel to Plan.Shards — MergeRegions panics on a length mismatch, since
// silently dropping trailing shards would strand their areas as unassigned
// with no warning. A nil entry (e.g. an infeasible component) is the
// explicit way to contribute nothing, leaving that shard's areas unassigned.
func (p *Plan) MergeRegions(perShard [][][]int) [][]int {
	if len(perShard) != len(p.Shards) {
		panic(fmt.Sprintf("shard: MergeRegions got %d per-shard results for %d shards", len(perShard), len(p.Shards)))
	}
	var out [][]int
	for i := range p.Shards {
		for _, members := range perShard[i] {
			out = append(out, p.Shards[i].ToGlobal(members))
		}
	}
	return out
}

// Run executes fn(0), ..., fn(n-1) concurrently, bounded by the pool. It
// waits for every started call to return. The first error by lowest index
// wins (deterministic regardless of completion order); a context cancelled
// while waiting for a slot stops admitting new work and returns ctx.Err()
// unless an fn error outranks it. A nil pool runs the calls in index order on
// the calling goroutine, for callers that already hold a slot of the pool
// (nested acquisition could deadlock it) or have nothing to overlap.
func Run(ctx context.Context, n int, pool *solvecache.Pool, fn func(i int) error) error {
	errs := make([]error, n)
	var ctxErr error
	var wg sync.WaitGroup
	for i := 0; i < n && pool == nil; i++ {
		errs[i] = fn(i)
	}
	for i := 0; i < n && pool != nil; i++ {
		release, err := pool.Acquire(ctx)
		if err != nil {
			ctxErr = err
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer release()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctxErr
}
