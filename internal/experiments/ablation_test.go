package experiments

import (
	"fmt"
	"strings"
	"testing"

	"emp/internal/constraint"
	"emp/internal/fact"
)

// TestAblationsHonourConfig: under SkipTabu the local-search objective and
// tabu tenure tables are left out and the remaining FaCT solves are
// construction-only, and Iterations reaches every FaCT solve except the
// iterations table's rows, which keep their own counts.
func TestAblationsHonourConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ablation suite")
	}
	cfg := Config{Scale: 0.04, Seed: 1, Iterations: 3, SkipTabu: true}
	tabs, err := Ablations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byTitle := map[string]Table{}
	for _, tab := range tabs {
		for _, gone := range []string{"local-search objective", "tabu tenure"} {
			if strings.Contains(tab.Title, gone) {
				t.Errorf("table %q present under SkipTabu", tab.Title)
			}
		}
		byTitle[tab.Title] = tab
	}

	ds, err := dataset(cfg.withDefaults(), "2k")
	if err != nil {
		t.Fatal(err)
	}
	defaults := constraint.Set{defaultMin(), defaultAvg(), defaultSum()}
	solve := func(set constraint.Set, c fact.Config) *fact.Result {
		t.Helper()
		c.Seed = cfg.Seed
		res, err := fact.Solve(ds, set, c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	row := func(title string, i int) []string {
		t.Helper()
		tab, ok := byTitle[title]
		if !ok || i >= len(tab.Rows) {
			t.Fatalf("no row %d in table %q", i, title)
		}
		return tab.Rows[i]
	}

	// The fixed-k baseline's FaCT row is a construction-only solve at the
	// configured iteration count: the search would have lowered H.
	want := solve(constraint.Set{defaultSum()}, fact.Config{Iterations: 3, SkipLocalSearch: true})
	got := row("Fixed-k baseline: AZP-Tabu at FaCT's p (SUM-only query)", 0)
	if got[1] != fmt.Sprint(want.P) || got[2] != fmt.Sprintf("%.4g", want.HeteroAfter) {
		t.Errorf("fixed-k FaCT row %v, want k=%d H=%.4g", got, want.P, want.HeteroAfter)
	}
	if searched := solve(constraint.Set{defaultSum()}, fact.Config{Iterations: 3}); searched.HeteroAfter == want.HeteroAfter {
		t.Fatal("the search leaves H unchanged here, so the check above shows nothing")
	}

	// Every pickup-order row runs at the configured iteration count.
	for i, o := range []fact.Order{fact.OrderRandom, fact.OrderAscending, fact.OrderDescending} {
		want := solve(defaults, fact.Config{Iterations: 3, SkipLocalSearch: true, Order: o})
		if got := row("Ablation: area pickup order", i); got[1] != fmt.Sprint(want.P) || got[2] != fmt.Sprint(want.Unassigned) {
			t.Errorf("order %s row %v, want p=%d unassigned=%d", o, got, want.P, want.Unassigned)
		}
	}

	// The iterations table keeps its own counts: its first row is one
	// iteration whatever cfg.Iterations says.
	one := solve(defaults, fact.Config{Iterations: 1, SkipLocalSearch: true})
	if got := row("Ablation: construction iterations (best p kept) and workers", 0); got[0] != "1" || got[2] != fmt.Sprint(one.P) {
		t.Errorf("iterations row %v, want iterations 1 and p=%d", got, one.P)
	}
}
