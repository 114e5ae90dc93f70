// Command empcheck verifies a regionalization solution against a dataset
// and a constraint query: every region must be spatially contiguous and
// satisfy every constraint, and the assignment must be consistent. It exits
// non-zero when the solution is invalid, making it usable as a pipeline
// gate after external tools produce or edit assignments.
//
// Usage:
//
//	empcheck -data 2k.json -assign solution.csv \
//	  -q "MIN(POP16UP) <= 3000; SUM(TOTALPOP) >= 20000"
//
// The assignment CSV is the format empquery -assign writes: a header line
// "area,region" followed by one row per area, region -1 for unassigned.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"emp"
	"emp/internal/constraint"
	"emp/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("empcheck: ")
	var (
		dataPath  = flag.String("data", "", "dataset JSON path (required)")
		assignCSV = flag.String("assign", "", "assignment CSV path (required)")
		query     = flag.String("q", "", "constraint list to verify against (required)")
	)
	flag.Parse()
	if *dataPath == "" || *assignCSV == "" || *query == "" {
		log.Fatal("-data, -assign and -q are all required")
	}

	ds, err := emp.LoadDataset(*dataPath)
	if err != nil {
		log.Fatal(err)
	}
	set, err := emp.ParseConstraints(*query)
	if err != nil {
		log.Fatal(err)
	}
	assign, err := readAssignment(*assignCSV, ds.N())
	if err != nil {
		log.Fatal(err)
	}

	problems := verify(ds, set, assign)
	coherence := stats.JoinCountSameRegion(assign, ds.Graph())
	p := 0
	seen := map[int]bool{}
	unassigned := 0
	for _, r := range assign {
		if r < 0 {
			unassigned++
		} else if !seen[r] {
			seen[r] = true
			p++
		}
	}
	fmt.Printf("solution: p = %d, unassigned = %d of %d, spatial coherence = %.2f\n",
		p, unassigned, ds.N(), coherence)
	if len(problems) == 0 {
		fmt.Println("OK: all regions contiguous and all constraints satisfied")
		return
	}
	fmt.Printf("INVALID: %d problem(s)\n", len(problems))
	for _, pr := range problems {
		fmt.Println(" -", pr)
	}
	os.Exit(1)
}

// verify returns a list of problems (empty = valid).
func verify(ds *emp.Dataset, set emp.ConstraintSet, assign []int) []string {
	var problems []string
	ev, err := constraint.NewEvaluator(set, ds.Column)
	if err != nil {
		return []string{err.Error()}
	}
	groups := map[int][]int{}
	for a, r := range assign {
		if r >= 0 {
			groups[r] = append(groups[r], a)
		}
	}
	if len(groups) == 0 {
		return []string{"no regions in assignment"}
	}
	g := ds.Graph()
	for r, members := range groups {
		if !g.ConnectedSubset(members) {
			problems = append(problems, fmt.Sprintf("region %d is not spatially contiguous (%d areas)", r, len(members)))
		}
		tr := ev.Compute(members)
		for i := 0; i < ev.Len(); i++ {
			if !tr.Satisfied(i) {
				problems = append(problems, fmt.Sprintf("region %d violates %s (value %.6g)", r, ev.At(i), tr.Value(i)))
			}
		}
	}
	return problems
}

func readAssignment(path string, n int) ([]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(records) == 0 || records[0][0] != "area" {
		return nil, fmt.Errorf("assignment CSV must start with an 'area,region' header")
	}
	if len(records)-1 != n {
		return nil, fmt.Errorf("assignment has %d rows for %d areas", len(records)-1, n)
	}
	assign := make([]int, n)
	for i, rec := range records[1:] {
		if len(rec) != 2 {
			return nil, fmt.Errorf("row %d: %d field(s), want 2 (area,region)", i+1, len(rec))
		}
		area, err := strconv.Atoi(rec[0])
		if err != nil || area != i {
			return nil, fmt.Errorf("row %d: area id %q, want %d", i+1, rec[0], i)
		}
		r, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("row %d: bad region %q", i+1, rec[1])
		}
		assign[i] = r
	}
	return assign, nil
}
