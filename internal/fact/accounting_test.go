package fact

import (
	"context"
	"errors"
	"sync"
	"testing"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/flight"
	"emp/internal/obs"
)

// TestOneAccountingPointPerSolve: whichever path a solve takes, it is
// accounted for exactly once — one emp_solve_total bump, one solve event
// carrying the result's p, one final flight-recorder sample — and phase 1
// runs once on the dataset plus once inside each shard sub-solve. The
// cut-fallback row is a dataset too small to cut, which falls through to
// the whole-graph path without a second phase-1 pass.
func TestOneAccountingPointPerSolve(t *testing.T) {
	single, multi, set, reg := chaosSetup(t)
	one, err := data.New("one", [][]int{nil})
	if err != nil {
		t.Fatal(err)
	}
	if err := one.AddColumn(census.AttrTotalPop, []float64{30000}); err != nil {
		t.Fatal(err)
	}
	one.Dissimilarity = census.AttrTotalPop
	impossible := constraint.Set{constraint.AtLeast(constraint.Sum, census.AttrTotalPop, 1e15)}

	cases := []struct {
		name       string
		ds         *data.Dataset
		set        constraint.Set
		cfg        Config
		infeasible bool
	}{
		{"whole", single, set, Config{Seed: 3}, false},
		{"component_sharded", multi, set, Config{Seed: 3}, false},
		{"cut_sharded", single, set, Config{Seed: 3, CutShards: 4}, false},
		{"multi_start", single, set, Config{Seed: 3, Iterations: 3}, false},
		{"infeasible", single, impossible, Config{Seed: 3}, true},
		{"cut_fallback", one, set, Config{Seed: 3, CutShards: 4}, false},
	}
	const feasSpan = `emp_solve_phase_duration{phase="feasibility"}`
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			solves := reg.Counter("emp_solve_total", "").Value()
			infeasible := reg.Counter("emp_solve_infeasible_total", "").Value()
			sink := &obs.MemorySink{}
			reg.SetSink(sink)
			defer reg.SetSink(nil)
			rec := flight.NewRecorder()
			var mu sync.Mutex
			finals := 0
			rec.SetTap(func(s flight.Sample, _ func() []int) {
				mu.Lock()
				defer mu.Unlock()
				if s.Phase == flight.PhaseDone.String() {
					finals++
				}
			})

			res, err := SolveCtx(flight.NewContext(context.Background(), rec), tc.ds, tc.set, tc.cfg)
			if tc.infeasible != errors.Is(err, ErrInfeasible) {
				t.Fatalf("err = %v, want infeasible %v", err, tc.infeasible)
			}
			if !tc.infeasible && err != nil {
				t.Fatal(err)
			}

			if got := reg.Counter("emp_solve_total", "").Value() - solves; got != 1 {
				t.Errorf("emp_solve_total rose by %d, want 1", got)
			}
			wantInfeasible := int64(0)
			if tc.infeasible {
				wantInfeasible = 1
			}
			if got := reg.Counter("emp_solve_infeasible_total", "").Value() - infeasible; got != wantInfeasible {
				t.Errorf("emp_solve_infeasible_total rose by %d, want %d", got, wantInfeasible)
			}
			var events []obs.Event
			feasPasses := 0
			for _, e := range sink.Events() {
				switch {
				case e.Kind == "solve":
					events = append(events, e)
				case e.Kind == "span" && e.Name == feasSpan:
					feasPasses++
				}
			}
			wantEvents, wantFeas := 0, 1
			if !tc.infeasible {
				wantEvents, wantFeas = 1, 1+res.Shards
			}
			if len(events) != wantEvents {
				t.Fatalf("%d solve events, want %d", len(events), wantEvents)
			}
			if wantEvents == 1 && events[0].Fields["p"] != float64(res.P) {
				t.Errorf("solve event p = %v, want the result's %d", events[0].Fields["p"], res.P)
			}
			if finals != wantEvents {
				t.Errorf("%d final recorder samples, want %d", finals, wantEvents)
			}
			if feasPasses != wantFeas {
				t.Errorf("%d phase-1 spans, want %d (one for the dataset, one per shard sub-solve)", feasPasses, wantFeas)
			}
		})
	}
}
