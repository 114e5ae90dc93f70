package fact

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/solvecache"
)

// TestParallelMatchesSequentialBest pins the multi-start determinism claim:
// with the same seed, parallel and sequential construction must pick the
// identical best candidate (same p, same heterogeneity, same assignment),
// because each iteration owns its RNG and the tie-break prefers the lowest
// iteration index. Bounded goroutine creation on the pool must not change
// which iterations run.
func TestParallelMatchesSequentialBest(t *testing.T) {
	ds, err := census.Generate(census.Options{Name: "par", Areas: 240, States: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	set, err := constraint.ParseSet("SUM(TOTALPOP) >= 30000")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Iterations: 6, Seed: 9, SkipLocalSearch: true}

	seqCfg := base
	seqCfg.Pool = solvecache.NewPool(1)
	seq, err := Solve(ds, set, seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	parCfg := base
	parCfg.Pool = solvecache.NewPool(4)
	par, err := Solve(ds, set, parCfg)
	if err != nil {
		t.Fatal(err)
	}

	if seq.P != par.P || seq.HeteroAfter != par.HeteroAfter {
		t.Fatalf("parallel best differs: p %d/%d, hetero %g/%g",
			seq.P, par.P, seq.HeteroAfter, par.HeteroAfter)
	}
	seqAssign := make([]int, ds.N())
	parAssign := make([]int, ds.N())
	for a := 0; a < ds.N(); a++ {
		seqAssign[a] = seq.Partition.Assignment(a)
		parAssign[a] = par.Partition.Assignment(a)
	}
	if !reflect.DeepEqual(seqAssign, parAssign) {
		t.Error("parallel and sequential runs picked different best candidates")
	}
	if seq.Iterations != base.Iterations || par.Iterations != base.Iterations {
		t.Errorf("iterations = %d/%d, want %d", seq.Iterations, par.Iterations, base.Iterations)
	}
}

// TestSolveCtxPreCancelled verifies an already-cancelled context never
// reaches the construction phase.
func TestSolveCtxPreCancelled(t *testing.T) {
	ds, err := census.Generate(census.Options{Name: "pre", Areas: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	set, err := constraint.ParseSet("SUM(TOTALPOP) >= 20000")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveCtx(ctx, ds, set, Config{Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled solve must not return a result")
	}
}

// TestSolveCtxCancelMidRun cancels a deliberately long solve (many
// construction iterations plus local search) shortly after it starts and
// checks it returns promptly with the context error. Run under -race this
// also proves the cancellation path is free of data races with the parallel
// multi-start.
func TestSolveCtxCancelMidRun(t *testing.T) {
	ds, err := census.Generate(census.Options{Name: "mid", Areas: 900, States: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	set, err := constraint.ParseSet("SUM(TOTALPOP) >= 25000")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"tabu", Config{Iterations: 60, Seed: 2, Pool: solvecache.NewPool(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(30 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			res, err := SolveCtx(ctx, ds, set, tc.cfg)
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v (after %v), want context.Canceled", err, elapsed)
			}
			if res != nil {
				t.Error("cancelled solve must not return a result")
			}
			// 60 construction iterations on 900 areas plus local search
			// takes many seconds; a prompt cancellation is far below that.
			if elapsed > 5*time.Second {
				t.Errorf("cancellation took %v, want prompt return", elapsed)
			}
		})
	}
}

// TestSolveCtxNilAndBackground verifies the ctx-free paths are unchanged.
func TestSolveCtxNilAndBackground(t *testing.T) {
	ds, err := census.Generate(census.Options{Name: "nilctx", Areas: 60, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	set, err := constraint.ParseSet("SUM(TOTALPOP) >= 15000")
	if err != nil {
		t.Fatal(err)
	}
	a, err := SolveCtx(nil, ds, set, Config{Seed: 1}) //nolint:staticcheck // nil ctx tolerance is part of the API
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(ds, set, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.P != b.P || a.HeteroAfter != b.HeteroAfter {
		t.Errorf("nil-ctx solve differs: p %d/%d hetero %g/%g", a.P, b.P, a.HeteroAfter, b.HeteroAfter)
	}
}
