package fact

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/solvecache"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current solver")

const goldenPath = "testdata/golden.json"

// golden is one pinned solve outcome. H is stored as its IEEE-754 bits and
// the assignment as an FNV-64a hash of WarmAssignment, so any drift in p, the
// unassigned count, the objective or a single area's label fails the test.
// Moves, Evals and the rest of the search profile pin the local search's
// trajectory: the accepted moves, the new-best events, and the hot-path work
// (candidate evaluations, heap churn, tabu rejections, removability passes)
// it did to find them.
type golden struct {
	P            int    `json:"p"`
	Unassigned   int    `json:"unassigned"`
	HBits        string `json:"h_bits"`
	AssignHash   string `json:"assign_hash"`
	Moves        int    `json:"moves"`
	Evals        int64  `json:"evals"`
	Improvements int    `json:"improvements"`
	HeapPushes   int64  `json:"heap_pushes"`
	HeapPops     int64  `json:"heap_pops"`
	TabuRejects  int64  `json:"tabu_rejections"`
	Removability int64  `json:"removability_passes"`
}

// goldenCases covers every solve path: whole-graph (2k, and 8k, whose one
// state block makes it single-component), component-sharded (10k and 20k),
// cut-sharded and multi-start; the enriched constraint families (MIN, MAX,
// AVG, COUNT and a two-sided SUM range); the descending pickup order; and a
// warm start whose seed regions all exceed the new upper bound, so Step 3
// sheds areas; and construction-only solves on full-size datasets, the
// shape of a cold dataset's first request. Searched datasets are scaled so
// the sweep stays fast under -race, except the paper-scale case, which
// -short skips.
var goldenCases = []struct {
	name    string
	dataset string
	scale   float64
	// cons is the constraint set. When it holds verbs, %[1]d is replaced by a
	// SUM(TOTALPOP) floor T of total/25 and %[2]d by 3T.
	cons string
	// warm, when set, is a constraint set rendered like cons whose solve
	// (same config) seeds cfg.WarmStart.
	warm  string
	cfg   Config
	large bool // paper scale: skipped under -short
}{
	{"2k", "2k", 0.1, "SUM(TOTALPOP) >= %[1]d", "", Config{Seed: 3}, false},
	{"2k_enriched", "2k", 0.1, "SUM(TOTALPOP) >= %[1]d; AVG(EMPLOYED) in [1000, 4000]; COUNT <= 40", "", Config{Seed: 5}, false},
	{"8k", "8k", 0.05, "SUM(TOTALPOP) >= %[1]d", "", Config{Seed: 7}, false},
	{"10k", "10k", 0.06, "SUM(TOTALPOP) >= %[1]d", "", Config{Seed: 9}, false},
	{"20k", "20k", 0.03, "SUM(TOTALPOP) >= %[1]d", "", Config{Seed: 11}, false},
	{"30k1_cut4", "30k1", 0.03, "SUM(TOTALPOP) >= %[1]d", "", Config{Seed: 13, CutShards: 4}, false},
	{"2k_iter3", "2k", 0.1, "SUM(TOTALPOP) >= %[1]d", "", Config{Seed: 17, Iterations: 3}, false},
	{"20k_iter3", "20k", 0.03, "SUM(TOTALPOP) >= %[1]d", "", Config{Seed: 19, Iterations: 3}, false},
	{"8k_min_avg", "8k", 0.05, "MIN(POP16UP) <= 3000; AVG(EMPLOYED) in [1500,3500]; SUM(TOTALPOP) >= %[1]d", "", Config{Seed: 23}, false},
	{"20k_min_avg", "20k", 0.03, "MIN(POP16UP) <= 3000; AVG(EMPLOYED) in [1500,3500]; SUM(TOTALPOP) >= %[1]d", "", Config{Seed: 29}, false},
	{"8k_max_range", "8k", 0.05, "MAX(EMPLOYED) <= 5000; SUM(TOTALPOP) in [%[1]d,%[2]d]", "", Config{Seed: 31}, false},
	{"20k_max_range", "20k", 0.03, "MAX(EMPLOYED) <= 5000; SUM(TOTALPOP) in [%[1]d,%[2]d]", "", Config{Seed: 37}, false},
	{"8k_count", "8k", 0.05, "COUNT(*) in [5,40]; SUM(TOTALPOP) >= %[1]d", "", Config{Seed: 41}, false},
	{"20k_count", "20k", 0.03, "COUNT(*) in [5,40]; SUM(TOTALPOP) >= %[1]d", "", Config{Seed: 43}, false},
	{"8k_descending", "8k", 0.05, "SUM(TOTALPOP) >= %[1]d; AVG(EMPLOYED) in [1500,3500]", "", Config{Seed: 47, Order: OrderDescending}, false},
	{"8k_warm_shed", "8k", 0.05, "SUM(TOTALPOP) in [%[1]d,%[2]d]", "SUM(TOTALPOP) >= %[2]d", Config{Seed: 59}, false},
	// The paper-scale benchmark warm-up: 50k1 at dataset and solver seed 1.
	{"50k1", "50k1", 1, "SUM(TOTALPOP) >= 100000", "", Config{Seed: 1}, true},
	// The cold-dataset path: construction-only solves on full-size 2k, 8k
	// and 20k, under the construction-only warm-up's SUM floor and the
	// MIN/AVG, MAX-range and COUNT families at the same threshold.
	{"2k_cold", "2k", 1, "SUM(TOTALPOP) >= 19000", "", Config{Seed: 61, SkipLocalSearch: true}, false},
	{"8k_cold", "8k", 1, "SUM(TOTALPOP) >= 19000", "", Config{Seed: 67, SkipLocalSearch: true}, false},
	{"20k_cold", "20k", 1, "SUM(TOTALPOP) >= 19000", "", Config{Seed: 71, SkipLocalSearch: true}, false},
	{"2k_cold_min_avg", "2k", 1, "MIN(POP16UP) <= 3000; AVG(EMPLOYED) in [1500,3500]; SUM(TOTALPOP) >= 19000", "", Config{Seed: 73, SkipLocalSearch: true}, false},
	{"8k_cold_min_avg", "8k", 1, "MIN(POP16UP) <= 3000; AVG(EMPLOYED) in [1500,3500]; SUM(TOTALPOP) >= 19000", "", Config{Seed: 79, SkipLocalSearch: true}, false},
	{"20k_cold_min_avg", "20k", 1, "MIN(POP16UP) <= 3000; AVG(EMPLOYED) in [1500,3500]; SUM(TOTALPOP) >= 19000", "", Config{Seed: 83, SkipLocalSearch: true}, false},
	{"2k_cold_max_range", "2k", 1, "MAX(EMPLOYED) <= 5000; SUM(TOTALPOP) in [19000,57000]", "", Config{Seed: 89, SkipLocalSearch: true}, false},
	{"8k_cold_max_range", "8k", 1, "MAX(EMPLOYED) <= 5000; SUM(TOTALPOP) in [19000,57000]", "", Config{Seed: 97, SkipLocalSearch: true}, false},
	{"20k_cold_max_range", "20k", 1, "MAX(EMPLOYED) <= 5000; SUM(TOTALPOP) in [19000,57000]", "", Config{Seed: 101, SkipLocalSearch: true}, false},
	{"2k_cold_count", "2k", 1, "COUNT(*) in [5,40]; SUM(TOTALPOP) >= 19000", "", Config{Seed: 103, SkipLocalSearch: true}, false},
	{"8k_cold_count", "8k", 1, "COUNT(*) in [5,40]; SUM(TOTALPOP) >= 19000", "", Config{Seed: 107, SkipLocalSearch: true}, false},
	{"20k_cold_count", "20k", 1, "COUNT(*) in [5,40]; SUM(TOTALPOP) >= 19000", "", Config{Seed: 109, SkipLocalSearch: true}, false},
}

// goldenSet renders a golden constraint format for the dataset.
func goldenSet(t *testing.T, ds *data.Dataset, format string) constraint.Set {
	t.Helper()
	cons := format
	if strings.Contains(cons, "%") {
		var total float64
		for _, v := range ds.Column(census.AttrTotalPop) {
			total += v
		}
		cons = fmt.Sprintf(cons, int(total/25), 3*int(total/25))
	}
	set, err := constraint.ParseSet(cons)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func assignHash(assign []int) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range assign {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenSolves pins p, unassigned, H(P) bits, the full assignment and
// the search trajectory of every golden case against testdata/golden.json,
// at worker budgets 1 and 4. Each case is a subtest, so one can be run (or
// profiled) alone: -run 'TestGoldenSolves/^50k1$'. Run with -update to
// rewrite the fixtures after a deliberate result change; cases that do not
// run (filtered out, or skipped by -short) keep their pinned entries. An
// entry that names no case fails the test, and -update prunes it, so a pin
// cannot outlive its case.
func TestGoldenSolves(t *testing.T) {
	want := map[string]golden{}
	raw, err := os.ReadFile(goldenPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	case !*updateGolden:
		t.Fatalf("reading fixtures (run with -update to create them): %v", err)
	}
	known := map[string]bool{}
	for _, tc := range goldenCases {
		known[tc.name] = true
	}
	for name := range want {
		switch {
		case known[name]:
		case *updateGolden:
			delete(want, name)
		default:
			t.Errorf("fixture %q names no golden case (run with -update to prune it)", name)
		}
	}
	got := map[string]golden{}
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.large && testing.Short() {
				t.Skip("paper-scale case; skipped under -short")
			}
			ds, err := census.Scaled(tc.dataset, tc.scale, 1)
			if err != nil {
				t.Fatal(err)
			}
			set := goldenSet(t, ds, tc.cons)
			for _, workers := range []int{1, 4} {
				cfg := tc.cfg
				cfg.Pool = solvecache.NewPool(workers)
				if tc.warm != "" {
					seed, err := Solve(ds, goldenSet(t, ds, tc.warm), cfg)
					if err != nil {
						t.Fatalf("workers=%d warm seed: %v", workers, err)
					}
					cfg.WarmStart = WarmAssignment(seed.Partition)
				}
				res, err := Solve(ds, set, cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				g := golden{
					P:            res.P,
					Unassigned:   res.Unassigned,
					HBits:        fmt.Sprintf("%016x", math.Float64bits(res.HeteroAfter)),
					AssignHash:   assignHash(WarmAssignment(res.Partition)),
					Moves:        res.TabuMoves,
					Evals:        res.Search.CandidateEvals,
					Improvements: res.Improvements,
					HeapPushes:   res.Search.HeapPushes,
					HeapPops:     res.Search.HeapPops,
					TabuRejects:  res.Search.TabuRejections,
					Removability: res.Search.RemovabilityPasses,
				}
				if prev, ok := got[tc.name]; ok && prev != g {
					t.Errorf("workers=4 %+v differs from workers=1 %+v", g, prev)
				}
				got[tc.name] = g
				if !*updateGolden && want[tc.name] != g {
					t.Errorf("workers=%d (components=%d, areas=%d): got %+v, want %+v",
						workers, ds.Components(), ds.N(), g, want[tc.name])
				}
			}
		})
	}
	if *updateGolden {
		maps.Copy(want, got)
		raw, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
