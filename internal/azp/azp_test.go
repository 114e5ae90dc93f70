package azp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"emp/internal/census"
	"emp/internal/data"
	"emp/internal/skater"
	"emp/internal/tabu"
)

func sample(t *testing.T) *data.Dataset {
	t.Helper()
	ds, err := census.Generate(census.Options{Name: "azp", Areas: 150, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func checkResult(t *testing.T, ds *data.Dataset, res *Result, k int) {
	t.Helper()
	if res.K != k {
		t.Fatalf("K = %d, want %d", res.K, k)
	}
	if len(res.Assignment) != ds.N() {
		t.Fatalf("assignment length %d", len(res.Assignment))
	}
	groups := make([][]int, res.K)
	for a, c := range res.Assignment {
		if c < 0 || c >= res.K {
			t.Fatalf("area %d has region %d outside [0,%d)", a, c, res.K)
		}
		groups[c] = append(groups[c], a)
	}
	g := ds.Graph()
	for i, members := range groups {
		if len(members) == 0 {
			t.Errorf("region %d empty", i)
		}
		if !g.ConnectedSubset(members) {
			t.Errorf("region %d not contiguous", i)
		}
	}
}

func TestSolveTabu(t *testing.T) {
	ds := sample(t)
	res, err := Solve(ds, 8, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, ds, res, 8)
	if res.Objective <= 0 {
		t.Error("objective not recorded")
	}
}

func TestSolveRestartsNeverWorse(t *testing.T) {
	ds := sample(t)
	one, err := Solve(ds, 6, Config{Seed: 3, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	three, err := Solve(ds, 6, Config{Seed: 3, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if three.Objective > one.Objective+1e-9 {
		t.Errorf("3 restarts objective %g worse than 1 restart %g", three.Objective, one.Objective)
	}
}

func TestSolveErrors(t *testing.T) {
	ds := sample(t)
	if _, err := Solve(ds, 0, Config{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Solve(ds, ds.N()+1, Config{}); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := Solve(&data.Dataset{Name: "e"}, 1, Config{}); err == nil {
		t.Error("empty dataset accepted")
	}
	// Multi-component: k below component count rejected, k == comps ok.
	mc, err := census.Generate(census.Options{Name: "mc", Areas: 120, States: 2, Components: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(mc, 1, Config{}); err == nil {
		t.Error("k below components accepted")
	}
	res, err := Solve(mc, 5, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, mc, res, 5)
}

func TestSolveCustomObjective(t *testing.T) {
	ds := sample(t)
	comp := tabu.NewCompactness(ds.Polygons)
	res, err := Solve(ds, 7, Config{Seed: 4, Objective: comp})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, ds, res, 7)
}

// TestAZPVsSKATERHeterogeneity compares the two fixed-k baselines under the
// paper's H(P) measure: AZP (which optimizes H directly) should not be
// wildly worse than SKATER (which optimizes SSD); both must be valid.
func TestAZPVsSKATERHeterogeneity(t *testing.T) {
	ds := sample(t)
	const k = 10
	a, err := Solve(ds, k, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := skater.Solve(ds, k)
	if err != nil {
		t.Fatal(err)
	}
	hs := pairwiseH(ds, s.Assignment)
	if a.Objective > 3*hs {
		t.Errorf("AZP H = %g vastly worse than SKATER H = %g", a.Objective, hs)
	}
}

func pairwiseH(ds *data.Dataset, assign []int) float64 {
	dis, _ := ds.DissimilarityColumn()
	groups := make(map[int][]int)
	for a, c := range assign {
		groups[c] = append(groups[c], a)
	}
	var h float64
	for _, members := range groups {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				d := dis[members[i]] - dis[members[j]]
				if d < 0 {
					d = -d
				}
				h += d
			}
		}
	}
	return h
}

// Property: any k in [components, n/4] yields a valid contiguous cover.
func TestSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds, err := census.Generate(census.Options{Name: "q", Areas: 60 + rng.Intn(60), Seed: seed})
		if err != nil {
			return false
		}
		k := 1 + rng.Intn(ds.N()/4)
		res, err := Solve(ds, k, Config{Seed: seed})
		if err != nil {
			return false
		}
		if res.K != k || len(res.Assignment) != ds.N() {
			return false
		}
		groups := make(map[int][]int)
		for a, c := range res.Assignment {
			groups[c] = append(groups[c], a)
		}
		g := ds.Graph()
		for _, members := range groups {
			if !g.ConnectedSubset(members) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
