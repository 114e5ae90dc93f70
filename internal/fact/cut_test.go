package fact

import (
	"testing"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/prep"
	"emp/internal/solvecache"
)

// cutTestInstance builds the single-component census instance the cut-mode
// tests share, with a SUM threshold that yields ~15-area regions.
func cutTestInstance(t *testing.T) (*data.Dataset, constraint.Set) {
	t.Helper()
	ds, err := census.Generate(census.Options{Name: "cutfact", Areas: 600, States: 2, Components: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	set, err := constraint.ParseSet("SUM(TOTALPOP) >= 40000")
	if err != nil {
		t.Fatal(err)
	}
	return ds, set
}

// TestCutSolveQuality: the cut-sharded solve must return a valid, fully
// satisfied partition whose p does not fall below the whole-graph solve —
// the seam-repair pass (rescue, donor growth, restricted tabu) is what
// makes that hold.
func TestCutSolveQuality(t *testing.T) {
	ds, set := cutTestInstance(t)
	whole, err := Solve(ds, set, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := Solve(ds, set, Config{Seed: 7, CutShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cut.CutShards < 2 {
		t.Fatalf("cut mode did not engage: CutShards=%d", cut.CutShards)
	}
	if err := cut.Partition.Validate(); err != nil {
		t.Fatalf("invalid cut partition: %v", err)
	}
	if !cut.Partition.AllSatisfied() {
		t.Fatal("cut partition violates constraints")
	}
	if cut.Unassigned != 0 {
		t.Fatalf("%d areas unassigned after seam repair", cut.Unassigned)
	}
	if cut.P < whole.P {
		t.Errorf("cut p=%d below whole-graph p=%d", cut.P, whole.P)
	}
	if cut.Shards != cut.CutShards {
		t.Errorf("Shards=%d, CutShards=%d; cut solves report the cut decomposition", cut.Shards, cut.CutShards)
	}
}

// TestCutDeterministicAcrossWorkers pins the determinism contract: for a
// fixed cut_shards, the worker count must never leak into the result.
func TestCutDeterministicAcrossWorkers(t *testing.T) {
	ds, set := cutTestInstance(t)
	var ref *Result
	for _, workers := range []int{1, 2, 4} {
		res, err := Solve(ds, set, Config{Seed: 7, CutShards: 4, Pool: solvecache.NewPool(workers)})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.P != ref.P || res.HeteroAfter != ref.HeteroAfter || res.SeamMoves != ref.SeamMoves {
			t.Fatalf("workers=%d: p=%d H=%v moves=%d, want p=%d H=%v moves=%d",
				workers, res.P, res.HeteroAfter, res.SeamMoves, ref.P, ref.HeteroAfter, ref.SeamMoves)
		}
		a, b := assignments(t, res), assignments(t, ref)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d: area %d assigned %d, 1-worker run assigned %d", workers, i, a[i], b[i])
			}
		}
	}
}

// TestCutDefaultOff is the opt-in differential: the zero-value config must
// take the whole-graph solve path untouched.
func TestCutDefaultOff(t *testing.T) {
	ds, set := cutTestInstance(t)
	base, err := Solve(ds, set, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if base.CutShards != 0 || base.SeamMoves != 0 || base.SeamRepairTime != 0 {
		t.Fatalf("default solve touched the cut path: CutShards=%d SeamMoves=%d SeamRepairTime=%v",
			base.CutShards, base.SeamMoves, base.SeamRepairTime)
	}
}

// TestCutPreparedIdentical: solving through a prepared artifact's memoized
// cut plan must give the identical result to the cold path.
func TestCutPreparedIdentical(t *testing.T) {
	ds, set := cutTestInstance(t)
	cold, err := Solve(ds, set, Config{Seed: 7, CutShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	art, err := prep.New(ds)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(ds, set, Config{Seed: 7, CutShards: 4, Prepared: art})
	if err != nil {
		t.Fatal(err)
	}
	if warm.P != cold.P || warm.HeteroAfter != cold.HeteroAfter {
		t.Fatalf("prepared p=%d H=%v, cold p=%d H=%v", warm.P, warm.HeteroAfter, cold.P, cold.HeteroAfter)
	}
	a, b := assignments(t, warm), assignments(t, cold)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("area %d: prepared assigned %d, cold assigned %d", i, a[i], b[i])
		}
	}
}

// TestCarveKeepsPartitionValid: every carve either commits one new region
// or leaves every assignment as it was, and after each the partition passes
// Validate and every region, donors included, satisfies every constraint,
// with donors off and on.
// Dissolving every fifth region of a solved partition gives the donors-off
// carve unassigned pockets to grow from.
func TestCarveKeepsPartitionValid(t *testing.T) {
	ds, set := cutTestInstance(t)
	res, err := Solve(ds, set, Config{Seed: 7, SkipLocalSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Partition
	for i, id := range p.RegionIDs() {
		if i%5 == 0 {
			p.DissolveRegion(id)
		}
	}
	c := newCarver(p)
	before := make([]int, ds.N())
	for _, donors := range []bool{false, true} {
		grown := 0
		for seed := 0; seed < ds.N(); seed++ {
			for a := range before {
				before[a] = p.Assignment(a)
			}
			regions := p.NumRegions()
			if c.carve(seed, donors) {
				grown++
				if p.NumRegions() != regions+1 {
					t.Fatalf("donors=%v seed %d: carve committed but p went %d -> %d", donors, seed, regions, p.NumRegions())
				}
			} else {
				for a, r := range before {
					if p.Assignment(a) != r {
						t.Fatalf("donors=%v seed %d: failed carve moved area %d from region %d to %d", donors, seed, a, r, p.Assignment(a))
					}
				}
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("donors=%v seed %d: %v", donors, seed, err)
			}
			if !p.AllSatisfied() {
				t.Fatalf("donors=%v seed %d: a region violates a constraint", donors, seed)
			}
		}
		if grown == 0 {
			t.Errorf("donors=%v: no carve succeeded, so the test checks nothing", donors)
		}
	}
}
