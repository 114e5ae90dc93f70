package tabu

import (
	"context"
	"io"
	"sync"
	"testing"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/flight"
	"emp/internal/obs"
	"emp/internal/region"
)

// bench8k lazily builds the census "8k" dataset (8049 areas) partitioned
// into ~32 BFS-grown regions. Built once per test binary; benchmarks clone
// it per iteration so the base stays pristine.
var bench8k struct {
	once sync.Once
	p    *region.Partition
	err  error
}

func eightKPartition(b testing.TB) *region.Partition {
	b.Helper()
	bench8k.once.Do(func() {
		ds, err := census.NamedSeeded("8k", 1)
		if err != nil {
			bench8k.err = err
			return
		}
		set := constraint.Set{constraint.AtLeast(constraint.Count, "", 1)}
		ev, err := constraint.NewEvaluator(set, ds.Column)
		if err != nil {
			bench8k.err = err
			return
		}
		p, err := region.NewPartition(ds, ev)
		if err != nil {
			bench8k.err = err
			return
		}
		growRegions(p, 32)
		if err := p.Validate(); err != nil {
			bench8k.err = err
			return
		}
		bench8k.p = p
	})
	if bench8k.err != nil {
		b.Fatal(bench8k.err)
	}
	return bench8k.p
}

// growRegions carves the dataset into k contiguous regions by round-robin
// BFS growth from seeds spread across each graph component. The direct
// growth (rather than maxp/azp construction) avoids an import cycle: those
// packages import tabu.
func growRegions(p *region.Partition, k int) {
	g := p.Graph()
	n := p.Dataset().N()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	var frontiers [][]int
	for _, comp := range g.ComponentMembers() {
		kc := k * len(comp) / n
		if kc == 0 {
			kc = 1
		}
		for i := 0; i < kc; i++ {
			seed := comp[i*len(comp)/kc]
			if assign[seed] != -1 {
				continue
			}
			assign[seed] = len(frontiers)
			frontiers = append(frontiers, []int{seed})
		}
	}
	for {
		changed := false
		for r := range frontiers {
			var next []int
			for _, u := range frontiers[r] {
				for _, v32 := range g.Neighbors(u) {
					v := int(v32)
					if assign[v] == -1 {
						assign[v] = r
						next = append(next, v)
						changed = true
					}
				}
			}
			frontiers[r] = next
		}
		if !changed {
			break
		}
	}
	members := make([][]int, len(frontiers))
	for a, r := range assign {
		if r >= 0 {
			members[r] = append(members[r], a)
		}
	}
	for _, m := range members {
		if len(m) > 0 {
			p.NewRegion(m...)
		}
	}
}

// BenchmarkTabuImprove8k is the acceptance benchmark: one full Improve run
// on the 8k dataset. "kernel" is the production hot path; "naive" is the
// pre-kernel reference searcher of fallback_test.go (naive deltas, full
// candidate scans, per-candidate BFS); "kerneloff" isolates the Fenwick
// kernel's share by running the incremental searcher with naive deltas.
func BenchmarkTabuImprove8k(b *testing.B) {
	base := eightKPartition(b)
	for _, mode := range []struct {
		name    string
		kernel  bool
		improve func(*region.Partition, Config) Stats
	}{
		{"kernel", true, Improve},
		{"naive", false, improveFallback},
		{"kerneloff", false, Improve},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := Config{Tenure: 10, MaxNoImprove: 30}
			var moves int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := base.Clone()
				p.SetHeteroKernel(mode.kernel)
				b.StartTimer()
				st := mode.improve(p, cfg)
				moves += st.Moves
			}
			b.ReportMetric(float64(moves)/float64(b.N), "moves/op")
		})
	}
}

// BenchmarkTabuTelemetry is the telemetry-overhead acceptance benchmark: the
// same kernel Improve run with the package metrics absent (unbound, the
// library default), bound to a disabled registry, bound to an enabled one,
// and "recorded": enabled plus the request-shaped context an empserve solve
// runs under (a trace-rooting histogram span, a flight recorder sampling
// incumbent improvements, and span events streamed to a JSONL sink). The
// acceptance bar is <= 3% slowdown enabled and noise-level when disabled;
// the hot loops only bump plain struct ints either way, so the difference
// is confined to the per-run flush and the per-improvement samples. Only
// tabu and region are bound here (not via obswire — that package imports
// this one).
func BenchmarkTabuTelemetry(b *testing.B) {
	base := eightKPartition(b)
	var solveHist *obs.Histogram
	modes := []struct {
		name string
		bind func()
		// request, when set, opens a request-shaped context for one run
		// and returns it with the function that closes the request.
		request func() (context.Context, func())
	}{
		{"absent", func() { SetMetrics(nil); region.SetMetrics(nil) }, nil},
		{"disabled", func() {
			r := obs.New()
			SetMetrics(r)
			region.SetMetrics(r)
		}, nil},
		{"enabled", func() {
			r := obs.New()
			r.SetEnabled(true)
			SetMetrics(r)
			region.SetMetrics(r)
		}, nil},
		{"recorded", func() {
			r := obs.New()
			r.SetEnabled(true)
			r.SetSink(obs.NewJSONLSink(io.Discard))
			SetMetrics(r)
			region.SetMetrics(r)
			solveHist = r.Histogram("emp_solve_duration", "Solve wall-time distribution.", nil)
		}, func() (context.Context, func()) {
			span, ctx := solveHist.StartCtx(context.Background())
			return flight.NewContext(ctx, flight.NewRecorder(0)), func() { span.End() }
		}},
	}
	defer func() { SetMetrics(nil); region.SetMetrics(nil) }()
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			mode.bind()
			cfg := Config{Tenure: 10, MaxNoImprove: 30}
			var moves int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := base.Clone()
				b.StartTimer()
				end := func() {}
				if mode.request != nil {
					cfg.Ctx, end = mode.request()
				}
				st := Improve(p, cfg)
				end()
				moves += st.Moves
			}
			b.ReportMetric(float64(moves)/float64(b.N), "moves/op")
		})
	}
}

// BenchmarkCandidateRefresh isolates the per-move candidate maintenance:
// apply a move, rebuild the affected candidate entries, undo.
func BenchmarkCandidateRefresh(b *testing.B) {
	base := eightKPartition(b)
	for _, mode := range []struct {
		name   string
		kernel bool
	}{{"kernel", true}, {"naive", false}} {
		b.Run(mode.name, func(b *testing.B) {
			p := base.Clone()
			p.SetHeteroKernel(mode.kernel)
			s := newSearcher(p, Heterogeneity{}, nil)
			if s.heap.len() == 0 {
				b.Fatal("no candidate moves on the benchmark partition")
			}
			it := s.heap.min()
			a, to := it.key.area, it.key.to
			from := p.Assignment(a)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.MoveArea(a, to)
				s.refreshAround(a, from, to)
				p.MoveArea(a, from)
				s.refreshAround(a, to, from)
			}
		})
	}
}

// BenchmarkImproveConverge searches the 8k partition to the solver's own
// stopping rule (MaxNoImprove = n, the default tenure), the run shape where
// the final non-improving stretch dominates and the cycle fast-forward
// engages. replayed-moves/op is the part of moves/op that repeated a proven
// cycle without being executed.
func BenchmarkImproveConverge(b *testing.B) {
	base := eightKPartition(b)
	cfg := Config{Tenure: 10, MaxNoImprove: base.Dataset().N()}
	var moves, replayed int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := base.Clone()
		b.StartTimer()
		st := Improve(p, cfg)
		moves += st.Moves
		replayed += st.ReplayedMoves
	}
	b.ReportMetric(float64(moves)/float64(b.N), "moves/op")
	b.ReportMetric(float64(replayed)/float64(b.N), "replayed-moves/op")
}
