package fact

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/solvecache"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current solver")

const goldenPath = "testdata/golden.json"

// golden is one pinned solve outcome. H is stored as its IEEE-754 bits and
// the assignment as an FNV-64a hash of WarmAssignment, so any drift in p, the
// unassigned count, the objective or a single area's label fails the test.
type golden struct {
	P          int    `json:"p"`
	Unassigned int    `json:"unassigned"`
	HBits      string `json:"h_bits"`
	AssignHash string `json:"assign_hash"`
}

// goldenCases covers every solve path: whole-graph (2k, and 8k, whose one
// state block makes it single-component), component-sharded (10k and 20k),
// cut-sharded and multi-start. Datasets are scaled so the sweep stays fast
// under -race.
var goldenCases = []struct {
	name    string
	dataset string
	scale   float64
	cons    string // %d is replaced by a SUM(TOTALPOP) floor of total/25
	cfg     Config
}{
	{"2k", "2k", 0.1, "SUM(TOTALPOP) >= %d", Config{Seed: 3}},
	{"2k_enriched", "2k", 0.1, "SUM(TOTALPOP) >= %d; AVG(EMPLOYED) in [1000, 4000]; COUNT <= 40", Config{Seed: 5}},
	{"8k", "8k", 0.05, "SUM(TOTALPOP) >= %d", Config{Seed: 7}},
	{"10k", "10k", 0.06, "SUM(TOTALPOP) >= %d", Config{Seed: 9}},
	{"20k", "20k", 0.03, "SUM(TOTALPOP) >= %d", Config{Seed: 11}},
	{"30k1_cut4", "30k1", 0.03, "SUM(TOTALPOP) >= %d", Config{Seed: 13, CutShards: 4}},
	{"2k_iter3", "2k", 0.1, "SUM(TOTALPOP) >= %d", Config{Seed: 17, Iterations: 3}},
	{"20k_iter3", "20k", 0.03, "SUM(TOTALPOP) >= %d", Config{Seed: 19, Iterations: 3}},
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

// TestGoldenSolves pins p, unassigned, H(P) bits and the full assignment of
// every golden case against testdata/golden.json, at worker budgets 1 and 4.
// Run with -update to rewrite the fixtures after a deliberate result change.
func TestGoldenSolves(t *testing.T) {
	want := map[string]golden{}
	if !*updateGolden {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("reading fixtures (run with -update to create them): %v", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]golden{}
	for _, tc := range goldenCases {
		ds, err := census.Scaled(tc.dataset, tc.scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, v := range ds.Column(census.AttrTotalPop) {
			total += v
		}
		set, err := constraint.ParseSet(fmt.Sprintf(tc.cons, int(total/25)))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			cfg := tc.cfg
			cfg.Pool = solvecache.NewPool(workers)
			res, err := Solve(ds, set, cfg)
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", tc.name, workers, err)
			}
			g := golden{
				P:          res.P,
				Unassigned: res.Unassigned,
				HBits:      fmt.Sprintf("%016x", math.Float64bits(res.HeteroAfter)),
				AssignHash: assignHash(WarmAssignment(res.Partition)),
			}
			if prev, ok := got[tc.name]; ok && prev != g {
				t.Errorf("%s: workers=4 %+v differs from workers=1 %+v", tc.name, g, prev)
			}
			got[tc.name] = g
			if !*updateGolden && want[tc.name] != g {
				t.Errorf("%s/workers=%d (components=%d, areas=%d): got %+v, want %+v",
					tc.name, workers, ds.Components(), ds.N(), g, want[tc.name])
			}
		}
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
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
