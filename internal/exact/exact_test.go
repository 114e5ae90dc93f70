package exact

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/fact"
	"emp/internal/geom"
)

func gridDataset(t *testing.T, cols, rows int, vals []float64) *data.Dataset {
	t.Helper()
	polys := geom.Lattice(geom.LatticeOptions{Cols: cols, Rows: rows})
	ds := data.FromPolygons("g", polys, geom.Rook)
	if err := ds.AddColumn("s", vals); err != nil {
		t.Fatal(err)
	}
	ds.Dissimilarity = "s"
	return ds
}

func TestSolveTrivial(t *testing.T) {
	// 2x1 grid, values {1, 2}, SUM >= 1: optimum is two singleton regions.
	ds := gridDataset(t, 2, 1, []float64{1, 2})
	set := constraint.Set{constraint.AtLeast(constraint.Sum, "s", 1)}
	res, err := Solve(ds, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.P != 2 || res.Hetero != 0 {
		t.Errorf("got %+v, want feasible p=2 hetero=0", res)
	}
}

func TestSolveThresholdForcesMerge(t *testing.T) {
	// 2x1 grid, values {1, 2}, SUM >= 3: only the merged region works.
	ds := gridDataset(t, 2, 1, []float64{1, 2})
	set := constraint.Set{constraint.AtLeast(constraint.Sum, "s", 3)}
	res, err := Solve(ds, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.P != 1 {
		t.Errorf("got %+v, want p=1", res)
	}
	if res.Hetero != 1 {
		t.Errorf("hetero = %g, want 1", res.Hetero)
	}
	if res.Assignment[0] != 0 || res.Assignment[1] != 0 {
		t.Errorf("assignment = %v", res.Assignment)
	}
}

func TestSolveUsesUnassignedSet(t *testing.T) {
	// Values {1, 10}, MAX <= 5: area 1 is invalid, so the optimum leaves
	// it unassigned and keeps the singleton {0}.
	ds := gridDataset(t, 2, 1, []float64{1, 10})
	set := constraint.Set{constraint.AtMost(constraint.Max, "s", 5)}
	res, err := Solve(ds, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.P != 1 {
		t.Fatalf("got %+v", res)
	}
	if res.Assignment[0] != 0 || res.Assignment[1] != -1 {
		t.Errorf("assignment = %v, want [0 -1]", res.Assignment)
	}
}

func TestSolveInfeasible(t *testing.T) {
	ds := gridDataset(t, 2, 1, []float64{1, 2})
	set := constraint.Set{constraint.AtLeast(constraint.Sum, "s", 100)}
	res, err := Solve(ds, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible || res.P != 0 {
		t.Errorf("got %+v, want infeasible", res)
	}
}

func TestSolveContiguityEnforced(t *testing.T) {
	// 3x1 path, values {5, 1, 5}, AVG in [4, 6]: {0, 2} would average 5
	// but is not contiguous; optimum must not use it. Singletons {0} and
	// {2} are each valid (avg 5); {1} is not (avg 1).
	ds := gridDataset(t, 3, 1, []float64{5, 1, 5})
	set := constraint.Set{constraint.New(constraint.Avg, "s", 4, 6)}
	res, err := Solve(ds, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 2 {
		t.Fatalf("p = %d, want 2 (two singletons, middle unassigned): %+v", res.P, res)
	}
	if res.Assignment[1] != -1 {
		t.Errorf("assignment = %v, area 1 should be unassigned", res.Assignment)
	}
}

func TestSolveRespectsLimit(t *testing.T) {
	vals := make([]float64, 16)
	ds := gridDataset(t, 4, 4, vals)
	set := constraint.Set{}
	if _, err := Solve(ds, set, Options{}); err == nil {
		t.Error("16 areas should exceed the default limit")
	}
	if _, err := Solve(ds, set, Options{LimitN: 5}); err == nil {
		t.Error("custom lower limit ignored")
	}
	if _, err := Solve(&data.Dataset{Name: "e"}, set, Options{}); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestSolveMultiConstraint(t *testing.T) {
	// 2x2 grid, values 1..4. MIN in [1,2] and COUNT in [2,4]: every
	// region needs >= 2 areas and must contain an area with value <= 2
	// while all values >= 1 (trivially true).
	ds := gridDataset(t, 2, 2, []float64{1, 2, 3, 4})
	set := constraint.Set{
		constraint.New(constraint.Min, "s", 1, 2),
		constraint.New(constraint.Count, "", 2, 4),
	}
	res, err := Solve(ds, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Two regions of two areas each, one containing value 1 and the other
	// value 2: e.g. {0, 2} and {1, 3}.
	if res.P != 2 {
		t.Errorf("p = %d, want 2: %+v", res.P, res)
	}
}

// TestFactNeverBeatsExact cross-validates FaCT against the exact optimum on
// random tiny instances: FaCT's p must never exceed the exact p, and when
// the exact solver finds a solution with p >= 1, FaCT must find a feasible
// (possibly smaller) one or correctly report infeasibility only when exact
// found none.
func TestFactNeverBeatsExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols, rows := 3, 3
		n := cols * rows
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(1 + rng.Intn(9))
		}
		polys := geom.Lattice(geom.LatticeOptions{Cols: cols, Rows: rows})
		ds := data.FromPolygons("x", polys, geom.Rook)
		if ds.AddColumn("s", vals) != nil {
			return false
		}
		ds.Dissimilarity = "s"
		// Random constraint mix.
		set := constraint.Set{constraint.AtLeast(constraint.Sum, "s", float64(3+rng.Intn(10)))}
		if rng.Intn(2) == 0 {
			set = append(set, constraint.New(constraint.Avg, "s", 2, float64(5+rng.Intn(5))))
		}
		if rng.Intn(2) == 0 {
			set = append(set, constraint.AtMost(constraint.Count, "", float64(3+rng.Intn(4))))
		}
		ex, err := Solve(ds, set, Options{})
		if err != nil {
			return false
		}
		fr, err := fact.Solve(ds, set, fact.Config{Seed: seed, SkipLocalSearch: true})
		if errors.Is(err, fact.ErrInfeasible) {
			// The feasibility phase only reports hard infeasibility; the
			// exact solver must agree there is no solution.
			return !ex.Feasible
		}
		if err != nil {
			return false
		}
		if fr.P > ex.P {
			return false // greedy beating exhaustive optimum is a bug
		}
		if ex.Feasible && fr.P == ex.P && fr.Partition != nil {
			// With equal p, FaCT's heterogeneity (pre local search)
			// cannot beat the exact minimum.
			if fr.Partition.Heterogeneity() < ex.Hetero-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestExploredGrowsSuperExponentially(t *testing.T) {
	counts := make([]int64, 0, 3)
	for _, n := range []int{4, 6, 8} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i + 1)
		}
		ds := gridDataset(t, n, 1, vals)
		set := constraint.Set{constraint.AtLeast(constraint.Sum, "s", 2)}
		res, err := Solve(ds, set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Explored)
	}
	if !(counts[0] < counts[1] && counts[1] < counts[2]) {
		t.Errorf("explored counts not growing: %v", counts)
	}
	ratio1 := float64(counts[1]) / float64(counts[0])
	ratio2 := float64(counts[2]) / float64(counts[1])
	if ratio2 <= ratio1 {
		t.Errorf("growth not super-exponential: ratios %.1f then %.1f", ratio1, ratio2)
	}
}

// TestBuildPartitionVerifiesKernel re-verifies exhaustive optima through the
// incremental partition machinery: materializing the optimal assignment as a
// region.Partition must pass Validate (contiguity, trackers, kernel
// bookkeeping) and the kernel's heterogeneity must equal the enumeration's
// exhaustive pairwise sum.
func TestBuildPartitionVerifiesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		cols, rows := 2+rng.Intn(2), 2+rng.Intn(2)
		n := cols * rows
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(1 + rng.Intn(9))
		}
		ds := gridDataset(t, cols, rows, vals)
		set := constraint.Set{constraint.AtLeast(constraint.Sum, "s", float64(2+rng.Intn(6)))}
		ex, err := Solve(ds, set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !ex.Feasible {
			continue
		}
		p, err := BuildPartition(ds, set, ex)
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			t.Fatalf("trial %d: feasible result but no partition", trial)
		}
		if !p.HeteroKernelEnabled() {
			t.Fatal("hetero kernel should be on by default")
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: optimal partition fails invariants: %v", trial, err)
		}
		if got := p.Heterogeneity(); math.Abs(got-ex.Hetero) > 1e-9*(1+ex.Hetero) {
			t.Errorf("trial %d: kernel H %g != exhaustive H %g", trial, got, ex.Hetero)
		}
		if p.NumRegions() != ex.P {
			t.Errorf("trial %d: %d regions, want %d", trial, p.NumRegions(), ex.P)
		}
	}
}
