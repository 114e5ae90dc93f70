package emp

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := GenerateDataset(DatasetOptions{Name: "api", Areas: 120, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSolveEndToEnd(t *testing.T) {
	ds := smallDataset(t)
	set, err := ParseConstraints("MIN(POP16UP) <= 3000; AVG(EMPLOYED) in [1000,4000]; SUM(TOTALPOP) >= 15000")
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(ds, set, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.P < 1 {
		t.Fatalf("p = %d", sol.P)
	}
	regions := sol.Regions()
	if len(regions) != sol.P {
		t.Errorf("Regions() returned %d, P = %d", len(regions), sol.P)
	}
	assign := sol.Assignment()
	if len(assign) != ds.N() {
		t.Fatalf("assignment length %d", len(assign))
	}
	// Region member lists and assignment agree; indices dense in [0, P).
	count := 0
	for i, members := range regions {
		for _, a := range members {
			if assign[a] != i {
				t.Errorf("area %d: assignment %d, region list says %d", a, assign[a], i)
			}
			count++
		}
	}
	un := sol.UnassignedAreas()
	if count+len(un) != ds.N() {
		t.Errorf("regions (%d) + unassigned (%d) != N (%d)", count, len(un), ds.N())
	}
	for _, a := range un {
		if assign[a] != -1 {
			t.Errorf("unassigned area %d has assignment %d", a, assign[a])
		}
	}
	if sol.Heterogeneity() > sol.HeterogeneityBeforeLocalSearch() {
		t.Error("local search worsened H")
	}
	if sol.HeteroImprovement() < 0 {
		t.Error("negative improvement")
	}
	st := sol.Stats()
	if st.Iterations != 1 || st.Unassigned != len(un) {
		t.Errorf("stats = %+v", st)
	}
	if sol.Feasibility() == nil || !sol.Feasibility().Feasible {
		t.Error("feasibility report missing")
	}
}

// TestSolveCtxFacade: the context-first entry point cancels cooperatively
// and, uncancelled, matches Solve exactly (Solve delegates to it).
func TestSolveCtxFacade(t *testing.T) {
	ds, err := GenerateDataset(DatasetOptions{Name: "ctx", Areas: 160, States: 2, Components: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	set, err := ParseConstraints("SUM(TOTALPOP) >= 15000")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Solve(ds, set, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := SolveCtx(context.Background(), ds, set, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plain.P != viaCtx.P || plain.Heterogeneity() != viaCtx.Heterogeneity() {
		t.Errorf("Solve and SolveCtx disagree: %d/%g vs %d/%g",
			plain.P, plain.Heterogeneity(), viaCtx.P, viaCtx.Heterogeneity())
	}
	a, b := plain.Assignment(), viaCtx.Assignment()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("assignment differs at area %d", i)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveCtx(ctx, ds, set, Options{Seed: 3}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled SolveCtx err = %v, want context.Canceled", err)
	}
}

func TestSolveInfeasibleSurfacesReport(t *testing.T) {
	ds := smallDataset(t)
	set := ConstraintSet{AtLeast(Sum, "TOTALPOP", 1e12)}
	sol, err := Solve(ds, set, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
	if sol == nil || sol.Feasibility() == nil || sol.Feasibility().Feasible {
		t.Error("expected feasibility report with reasons")
	}
	if sol.Regions() != nil || sol.Assignment() != nil || sol.UnassignedAreas() != nil {
		t.Error("infeasible solution should expose no partition data")
	}
}

func TestConstraintBuilders(t *testing.T) {
	c := NewConstraint(Avg, "X", 1, 2)
	if c.Agg != Avg || c.Lower != 1 || c.Upper != 2 {
		t.Errorf("NewConstraint = %+v", c)
	}
	if AtLeast(Sum, "X", 5).Lower != 5 {
		t.Error("AtLeast wrong")
	}
	if AtMost(Max, "X", 9).Upper != 9 {
		t.Error("AtMost wrong")
	}
	pc, err := ParseConstraint("COUNT(*) <= 4")
	if err != nil || pc.Agg != Count {
		t.Errorf("ParseConstraint: %v %v", pc, err)
	}
}

func TestNamedDatasetAndIO(t *testing.T) {
	ds, err := NamedDataset("1k")
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 1012 {
		t.Errorf("1k has %d areas", ds.N())
	}
	if _, err := NamedDataset("777k"); err == nil {
		t.Error("unknown dataset accepted")
	}
	path := filepath.Join(t.TempDir(), "ds.json")
	if err := SaveDataset(ds, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ds.N() {
		t.Error("round trip lost areas")
	}
}

func TestSolveMaxPBaseline(t *testing.T) {
	ds := smallDataset(t)
	res, err := SolveMaxP(ds, "TOTALPOP", 20000, MaxPOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 1 {
		t.Errorf("baseline p = %d", res.P)
	}
}

func TestSolveAZPFacade(t *testing.T) {
	ds := smallDataset(t)
	res, err := SolveAZP(ds, 6, AZPOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 6 || len(res.Assignment) != ds.N() {
		t.Errorf("K=%d len=%d", res.K, len(res.Assignment))
	}
	if _, err := SolveAZP(ds, 0, AZPOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestGeoJSONAndSVGFacade(t *testing.T) {
	ds := smallDataset(t)
	set := ConstraintSet{AtLeast(Sum, "TOTALPOP", 30000)}
	sol, err := Solve(ds, set, Options{Seed: 1, SkipLocalSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	var gj, svg bytes.Buffer
	if err := WriteGeoJSON(&gj, ds, sol.Assignment()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGeoJSON(&gj, "back")
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ds.N() {
		t.Error("geojson round trip lost areas")
	}
	if err := RenderSVG(&svg, ds, sol.Assignment(), RenderSVGOptions{Width: 200}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "<svg") {
		t.Error("no SVG output")
	}
}

func TestCompactnessObjectiveFacade(t *testing.T) {
	ds := smallDataset(t)
	set := ConstraintSet{AtLeast(Sum, "TOTALPOP", 30000)}
	obj := NewCompactnessObjective(ds)
	sol, err := Solve(ds, set, Options{Seed: 1, Objective: obj})
	if err != nil {
		t.Fatal(err)
	}
	if sol.P < 1 {
		t.Error("no regions under compactness objective")
	}
}

func TestSolveExactTiny(t *testing.T) {
	ds, err := GenerateDataset(DatasetOptions{Name: "tiny", Areas: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	set := ConstraintSet{AtLeast(Count, "", 2)}
	res, err := SolveExact(ds, set)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.P != 3 {
		t.Errorf("exact on 6 areas with COUNT >= 2: %+v (want p=3)", res)
	}
}
