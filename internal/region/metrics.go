package region

import "emp/internal/obs"

// PartitionStats accumulates the partition's hot-path work as plain ints.
// A Partition is single-goroutine by contract, so the increments cost a
// load/add/store each — no atomics, no branches — and the whole struct is
// flushed into the process-wide registry at phase boundaries (end of a
// construction pass or local-search run) via FlushObs.
type PartitionStats struct {
	// KernelQueries counts heterogeneity evaluations answered by the
	// Fenwick kernel (O(attrs·log n) path).
	KernelQueries int64
	// NaiveScans counts heterogeneity evaluations answered by the naive
	// member scan (small regions or kernel off).
	NaiveScans int64
	// FenwickBuilds counts Fenwick index constructions (threshold
	// crossings, clones, kernel re-enables).
	FenwickBuilds int64
	// FenwickPoolReuse counts builds served from the partition's tree pool
	// instead of fresh allocations.
	FenwickPoolReuse int64
	// RemovabilityPasses counts articulation passes that made a region's
	// removability verdicts current (see CanRemove). No registry series
	// holds them: the local search reports its share as
	// emp_tabu_removability_passes_total.
	RemovabilityPasses int64
}

// Stats returns the partition's accumulated hot-path counters since creation
// or the last FlushObs.
func (p *Partition) Stats() PartitionStats { return p.stats }

// FlushObs adds the partition's accumulated counters to the registry bound
// by SetMetrics (a no-op when none is bound or it is disabled) and zeroes
// them. Solver phases call it once per run.
func (p *Partition) FlushObs() {
	m := met
	m.kernelQueries.Add(p.stats.KernelQueries)
	m.naiveScans.Add(p.stats.NaiveScans)
	m.fenwickBuilds.Add(p.stats.FenwickBuilds)
	m.fenwickPoolReuse.Add(p.stats.FenwickPoolReuse)
	p.stats = PartitionStats{}
}

// pkgMetrics holds the package's registry-bound counters. All fields are
// nil until SetMetrics binds a registry; obs counters are nil-receiver safe.
type pkgMetrics struct {
	kernelQueries    *obs.Counter
	naiveScans       *obs.Counter
	fenwickBuilds    *obs.Counter
	fenwickPoolReuse *obs.Counter
}

var met pkgMetrics

// SetMetrics binds the package's process-wide counters to the registry
// (nil unbinds them, restoring the zero-cost absent state). Call it during
// startup wiring, before solves begin — the binding itself is not
// synchronized against concurrent solver use.
func SetMetrics(r *obs.Registry) {
	if r == nil {
		met = pkgMetrics{}
		return
	}
	met = pkgMetrics{
		kernelQueries: r.Counter("emp_region_kernel_queries_total",
			"Heterogeneity evaluations answered by the Fenwick kernel."),
		naiveScans: r.Counter("emp_region_naive_scans_total",
			"Heterogeneity evaluations answered by the naive member scan."),
		fenwickBuilds: r.Counter("emp_region_fenwick_builds_total",
			"Per-region Fenwick index constructions."),
		fenwickPoolReuse: r.Counter("emp_region_fenwick_pool_reuse_total",
			"Fenwick index builds served from the partition's tree pool."),
	}
}
