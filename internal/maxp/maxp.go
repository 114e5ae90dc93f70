// Package maxp implements the classic max-p-regions baseline (Duque,
// Anselin & Rey 2012; construction in the style of Wei, Rey & Knaap 2020):
// grow regions from random seeds until each clears a single SUM lower-bound
// threshold, assign leftover enclaves to neighboring regions, then improve
// heterogeneity with the same Tabu search FaCT uses.
//
// The paper compares FaCT against this algorithm ("MP") in Table IV and
// Figures 12-13 with a single SUM constraint and an open upper bound.
package maxp

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/obs"
	"emp/internal/region"
	"emp/internal/tabu"
)

// pkgMetrics holds the registry-bound telemetry; nil until SetMetrics.
type pkgMetrics struct {
	solves   *obs.Counter
	spanCons *obs.Histogram
	spanTabu *obs.Histogram
}

var met pkgMetrics

// SetMetrics binds the package's process-wide counters to the registry (nil
// unbinds). Call during startup wiring, before solves begin.
func SetMetrics(r *obs.Registry) {
	if r == nil {
		met = pkgMetrics{}
		return
	}
	const phaseHelp = "Wall time of maxp.Solve phases."
	met = pkgMetrics{
		solves:   r.Counter("emp_maxp_solves_total", "Completed maxp.Solve runs."),
		spanCons: r.Histogram(`emp_maxp_phase_duration{phase="construction"}`, phaseHelp, nil),
		spanTabu: r.Histogram(`emp_maxp_phase_duration{phase="local_search"}`, phaseHelp, nil),
	}
}

// Config tunes the baseline.
type Config struct {
	// Iterations is the number of construction tries; the best p wins.
	// 0 means 1.
	Iterations int
	// TabuLength is the tabu tenure (0 = 10).
	TabuLength int
	// MaxNoImprove bounds non-improving tabu moves (0 = dataset size).
	MaxNoImprove int
	// SkipLocalSearch disables the tabu phase.
	SkipLocalSearch bool
	// Seed drives randomness.
	Seed int64
}

// Result is the baseline outcome, mirroring fact.Result where meaningful.
type Result struct {
	Partition                         *region.Partition
	P                                 int
	Unassigned                        int
	HeteroBefore, HeteroAfter         float64
	ConstructionTime, LocalSearchTime time.Duration
	TabuMoves                         int
}

// HeteroImprovement returns |before-after|/before.
func (r *Result) HeteroImprovement() float64 {
	if r.HeteroBefore == 0 {
		return 0
	}
	return (r.HeteroBefore - r.HeteroAfter) / r.HeteroBefore
}

// Solve runs the MP-regions baseline: maximize the number of regions with
// SUM(attr) >= threshold over spatially contiguous regions.
func Solve(ds *data.Dataset, attr string, threshold float64, cfg Config) (*Result, error) {
	if ds.N() == 0 {
		return nil, fmt.Errorf("maxp: empty dataset")
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 1
	}
	if cfg.TabuLength == 0 {
		cfg.TabuLength = 10
	}
	if cfg.MaxNoImprove == 0 {
		cfg.MaxNoImprove = ds.N()
	}
	set := constraint.Set{constraint.AtLeast(constraint.Sum, attr, threshold)}
	ev, err := constraint.NewEvaluator(set, ds.Column)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	consSpan := met.spanCons.Start()
	start := time.Now()
	var best *region.Partition
	for it := 0; it < cfg.Iterations; it++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(it)))
		p, err := construct(ds, ev, threshold, rng)
		if err != nil {
			return nil, err
		}
		if best == nil || p.NumRegions() > best.NumRegions() ||
			(p.NumRegions() == best.NumRegions() && p.Heterogeneity() < best.Heterogeneity()) {
			best = p
		}
	}
	res.ConstructionTime = time.Since(start)
	consSpan.End()
	res.Partition = best
	res.HeteroBefore = best.Heterogeneity()
	if !cfg.SkipLocalSearch && best.NumRegions() > 1 {
		tabuSpan := met.spanTabu.Start()
		stats := tabu.Improve(best, tabu.Config{
			Tenure:       cfg.TabuLength,
			MaxNoImprove: cfg.MaxNoImprove,
		})
		res.LocalSearchTime = tabuSpan.End()
		res.TabuMoves = stats.Moves
	}
	res.HeteroAfter = best.Heterogeneity()
	res.P = best.NumRegions()
	res.Unassigned = best.UnassignedCount()
	met.solves.Inc()
	return res, nil
}

// construct is one greedy grow-and-assign pass.
func construct(ds *data.Dataset, ev *constraint.Evaluator, threshold float64, rng *rand.Rand) (*region.Partition, error) {
	p, err := region.NewPartition(ds, ev)
	if err != nil {
		return nil, err
	}
	g := ds.Graph()
	dis, err := ds.DissimilarityColumn()
	if err != nil {
		return nil, err
	}
	col := ds.Column(ev.Set()[0].Attr)

	order := rng.Perm(ds.N())
	// Phase A: grow regions from unassigned seeds until the threshold is
	// met; failed growth is reverted, leaving enclaves.
	for _, seed := range order {
		if p.Assignment(seed) != region.Unassigned {
			continue
		}
		r := p.NewRegion(seed)
		sum := col[seed]
		for sum < threshold {
			// Add the most similar unassigned neighbor (by the
			// dissimilarity attribute) — Duque-style greedy growth.
			best, bestDiff := -1, math.Inf(1)
			for _, m := range r.Members {
				for _, nb := range g.Neighbors(m) {
					if p.Assignment(int(nb)) != region.Unassigned {
						continue
					}
					d := math.Abs(dis[nb] - dis[seed])
					if d < bestDiff {
						best, bestDiff = int(nb), d
					}
				}
			}
			if best < 0 {
				break
			}
			p.AddArea(r.ID, best)
			sum += col[best]
		}
		if sum < threshold {
			p.DissolveRegion(r.ID) // enclave: revert
		}
	}
	// Phase B: enclave assignment — attach every unassigned area to the
	// adjacent region with the most similar dissimilarity, sweeping until
	// a fixpoint (areas in components with no region remain unassigned;
	// the classic formulation assumes one component and full assignment).
	for {
		updated := false
		for _, a := range order {
			if p.Assignment(a) != region.Unassigned {
				continue
			}
			best, bestDiff := -1, math.Inf(1)
			for _, nb := range g.Neighbors(a) {
				id := p.Assignment(int(nb))
				if id == region.Unassigned {
					continue
				}
				d := math.Abs(dis[a] - dis[nb])
				if d < bestDiff {
					best, bestDiff = id, d
				}
			}
			if best >= 0 {
				p.AddArea(best, a)
				updated = true
			}
		}
		if !updated {
			p.FlushObs() // fold this pass's region counters into the registry
			return p, nil
		}
	}
}
