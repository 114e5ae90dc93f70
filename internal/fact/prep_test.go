package fact

import (
	"fmt"
	"testing"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/prep"
	"emp/internal/shard"
)

// preparedSet builds a constraint set proportional to the dataset's total
// population, so every scaled dataset lands at a non-trivial p.
func preparedSet(t *testing.T, dsTotal float64) constraint.Set {
	t.Helper()
	set, err := constraint.ParseSet(fmt.Sprintf("SUM(TOTALPOP) >= %d", int(dsTotal/25)))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestSolvePreparedDifferential pins the prep.Artifact result-neutrality
// contract on every census dataset: a solve with Config.Prepared set
// produces a bit-identical result — same p, same H(P), same assignment of
// every area — to a solve without one (which prepares a private artifact),
// on both the component-sharded path and the whole-dataset path (the
// largest component solved on its own, so every preset exercises it). A
// third solve reuses the caller's artifact, as a server does on every
// dataset-cache hit: it draws the Fenwick trees and scratch the previous
// solve recycled, and must still match. Datasets are scaled down so the
// sweep (which also runs under -race in CI) stays fast; the larger names
// keep multiple components, so the sharded path is genuinely exercised with
// prepared sub-artifacts.
func TestSolvePreparedDifferential(t *testing.T) {
	names := census.SizeNames()
	if testing.Short() {
		names = []string{"2k", "10k"}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			ds, err := census.Scaled(name, 0.06, 1)
			if err != nil {
				t.Fatal(err)
			}
			var total float64
			for _, v := range ds.Column(census.AttrTotalPop) {
				total += v
			}
			set := preparedSet(t, total)
			for _, mode := range []struct {
				name string
				ds   *data.Dataset
			}{{"sharded", ds}, {"whole", largestComponent(t, ds)}} {
				t.Run(mode.name, func(t *testing.T) {
					ds := mode.ds
					art, err := prep.New(ds)
					if err != nil {
						t.Fatal(err)
					}
					cfg := Config{Seed: 3, Iterations: 2}
					plain, err := Solve(ds, set, cfg)
					if err != nil {
						t.Fatalf("private solve: %v", err)
					}
					cfg.Prepared = art
					for _, run := range []string{"prepared", "reused"} {
						prepped, err := Solve(ds, set, cfg)
						if err != nil {
							t.Fatalf("%s solve: %v", run, err)
						}
						if plain.P != prepped.P {
							t.Fatalf("p diverged: private %d, %s %d", plain.P, run, prepped.P)
						}
						if plain.HeteroAfter != prepped.HeteroAfter {
							t.Fatalf("H(P) diverged: private %v, %s %v", plain.HeteroAfter, run, prepped.HeteroAfter)
						}
						for a := 0; a < ds.N(); a++ {
							if plain.Partition.Assignment(a) != prepped.Partition.Assignment(a) {
								t.Fatalf("assignment diverged at area %d: private %d, %s %d",
									a, plain.Partition.Assignment(a), run, prepped.Partition.Assignment(a))
							}
						}
						if plain.TabuMoves != prepped.TabuMoves {
							t.Errorf("move count diverged: private %d, %s %d", plain.TabuMoves, run, prepped.TabuMoves)
						}
					}
				})
			}
		})
	}
}

// largestComponent returns the dataset's largest connected component as a
// dataset of its own.
func largestComponent(t *testing.T, ds *data.Dataset) *data.Dataset {
	t.Helper()
	plan, err := shard.NewPlan(ds)
	if err != nil {
		t.Fatal(err)
	}
	best := plan.Shards[0].Dataset
	for _, s := range plan.Shards[1:] {
		if s.Dataset.N() > best.N() {
			best = s.Dataset
		}
	}
	return best
}

// TestSolvePreparedMismatchedArtifactIgnored pins the safety valve: an
// artifact prepared from a different dataset is ignored (the solve prepares
// its own) rather than applied, and the result still matches the solve
// without an artifact.
func TestSolvePreparedMismatchedArtifactIgnored(t *testing.T) {
	ds, err := census.Scaled("2k", 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := census.Scaled("1k", 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range ds.Column(census.AttrTotalPop) {
		total += v
	}
	set := preparedSet(t, total)
	art, err := prep.New(other)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Solve(ds, set, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mismatched, err := Solve(ds, set, Config{Seed: 5, Prepared: art})
	if err != nil {
		t.Fatalf("solve with mismatched artifact: %v", err)
	}
	if plain.P != mismatched.P || plain.HeteroAfter != mismatched.HeteroAfter {
		t.Fatalf("mismatched artifact changed the result: p %d vs %d, H %v vs %v",
			plain.P, mismatched.P, plain.HeteroAfter, mismatched.HeteroAfter)
	}
}
