// Package anneal provides a simulated-annealing local search as an
// alternative to the Tabu phase of FaCT. Regionalization literature uses
// both families (e.g. Openshaw's AZP-SA); simulated annealing trades the
// Tabu memory structure for a temperature schedule that accepts worsening
// moves with probability exp(-Δ/T).
//
// Like the Tabu phase, the annealer only applies moves that keep every
// region contiguous and feasible and never changes the number of regions p;
// the partition ends at the best state visited.
package anneal

import (
	"context"
	"math"
	"math/rand"

	"emp/internal/fault"
	"emp/internal/flight"
	"emp/internal/obs"
	"emp/internal/region"
	"emp/internal/tabu"
)

// Config tunes the annealer.
type Config struct {
	// Objective is the optimization target; nil means heterogeneity.
	Objective tabu.Objective
	// Steps is the number of proposal steps; 0 means 20x the number of
	// assigned areas.
	Steps int
	// Seed drives the proposal randomness.
	Seed int64
	// Ctx, when non-nil, is polled every ctxCheckEvery steps: on
	// cancellation the annealer stops proposing and returns through the
	// normal path, so the partition still ends at the best state visited.
	Ctx context.Context
}

// ctxCheckEvery is the cancellation poll interval in proposal steps. Anneal
// steps are much lighter than tabu iterations (one proposal, no heap), so
// polling Ctx.Err — which takes a mutex — every step would be measurable;
// every 32nd step bounds the cancellation latency well under a millisecond.
const ctxCheckEvery = 32

// cooling is the geometric cooling factor per step. The start temperature is
// calibrated from the first scored proposal.
const cooling = 0.995

// Stats reports what the annealer did.
type Stats struct {
	// Proposed and Accepted count move proposals and acceptances.
	Proposed, Accepted int
	// Improvements counts new-best events.
	Improvements int
	// BestScore is the objective value of the returned partition.
	BestScore float64
	// Counters profiles the run's hot-path work in the same units as the
	// Tabu searcher (heap fields stay zero: the annealer has no heap).
	Counters tabu.Counters
}

// pkgMetrics holds the registry-bound counters; nil until SetMetrics.
type pkgMetrics struct {
	runs     *obs.Counter
	proposed *obs.Counter
	accepted *obs.Counter
	span     *obs.Histogram
}

var met pkgMetrics

// SetMetrics binds the package's process-wide counters to the registry (nil
// unbinds). Call during startup wiring, before runs begin.
func SetMetrics(r *obs.Registry) {
	if r == nil {
		met = pkgMetrics{}
		return
	}
	met = pkgMetrics{
		runs:     r.Counter("emp_anneal_runs_total", "Annealer Improve invocations."),
		proposed: r.Counter("emp_anneal_proposed_total", "Annealer move proposals."),
		accepted: r.Counter("emp_anneal_accepted_total", "Annealer accepted moves."),
		span:     r.Histogram("emp_anneal_improve_duration", "Wall time of anneal.Improve runs.", nil),
	}
}

// flushRun records one finished run into the bound registry.
func flushRun(st *Stats, p *region.Partition) {
	m := met
	m.runs.Inc()
	m.proposed.Add(int64(st.Proposed))
	m.accepted.Add(int64(st.Accepted))
	p.FlushObs()
}

type appliedMove struct {
	area, from, to int
}

// Improve runs simulated annealing on the partition in place; on return the
// partition is at the best state visited.
func Improve(p *region.Partition, cfg Config) Stats {
	// Inherit the solve's trace identity from cfg.Ctx (when one is attached)
	// so the annealing phase appears in the reconstructed span tree.
	sp, _ := met.span.StartCtx(cfg.Ctx)
	stats := improve(p, cfg)
	sp.End()
	flushRun(&stats, p)
	return stats
}

func improve(p *region.Partition, cfg Config) Stats {
	obj := cfg.Objective
	if obj == nil {
		obj = tabu.Heterogeneity{}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Candidate areas: every assigned area with an out-of-region neighbor
	// (refreshed lazily from the moving frontier).
	assigned := assignedAreas(p)
	steps := cfg.Steps
	if steps <= 0 {
		steps = 20 * len(assigned)
	}
	if len(assigned) == 0 {
		return Stats{BestScore: obj.Total(p)}
	}

	rec := flight.FromContext(cfg.Ctx)
	var temp float64
	cur := obj.Total(p)
	best := cur
	var undo []appliedMove
	stats := Stats{BestScore: best}

	for step := 0; step < steps; step++ {
		if step%ctxCheckEvery == 0 {
			if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
				break // cancelled: fall through to the revert-to-best epilogue
			}
			if fault.Inject("anneal.epoch") != nil {
				break // injected stop: same path as a cancellation
			}
		}
		area := assigned[rng.Intn(len(assigned))]
		to, ok := randomTarget(p, rng, area)
		if !ok {
			continue
		}
		stats.Proposed++
		stats.Counters.RemovabilityPasses++ // MoveValid's donor-side BFS
		if !p.MoveValid(area, to) {
			continue
		}
		stats.Counters.CandidateEvals++
		delta := obj.DeltaMove(p, area, to)
		if temp == 0 {
			// Auto-calibrate: the first scored proposal sets T so a
			// typical worsening move starts ~60% acceptable.
			temp = math.Max(math.Abs(delta), 1) * 2
		}
		accept := delta <= 0 || rng.Float64() < math.Exp(-delta/temp)
		temp *= cooling
		if !accept {
			continue
		}
		from := p.Assignment(area)
		p.MoveArea(area, to)
		stats.Accepted++
		undo = append(undo, appliedMove{area: area, from: from, to: to})
		cur += delta
		if cur < best-1e-9 {
			// Re-evaluate exactly on improvement to avoid drift.
			cur = obj.Total(p)
			if cur < best-1e-9 {
				best = cur
				stats.Improvements++
				undo = undo[:0]
				// New incumbent: one flight-recorder sample.
				rec.Improve(p.NumRegions(), best, stats.Accepted, nil)
			}
		}
	}
	for i := len(undo) - 1; i >= 0; i-- {
		m := undo[i]
		p.MoveArea(m.area, m.from)
	}
	stats.BestScore = obj.Total(p)
	return stats
}

func assignedAreas(p *region.Partition) []int {
	var out []int
	ds := p.Dataset()
	for a := 0; a < ds.N(); a++ {
		if p.Assignment(a) != region.Unassigned {
			out = append(out, a)
		}
	}
	return out
}

// randomTarget picks a random neighboring region of the area.
func randomTarget(p *region.Partition, rng *rand.Rand, area int) (int, bool) {
	own := p.Assignment(area)
	var targets []int
	seen := map[int]bool{own: true}
	for _, nb := range p.Graph().Neighbors(area) {
		id := p.Assignment(int(nb))
		if id != region.Unassigned && !seen[id] {
			seen[id] = true
			targets = append(targets, id)
		}
	}
	if len(targets) == 0 {
		return 0, false
	}
	return targets[rng.Intn(len(targets))], true
}
