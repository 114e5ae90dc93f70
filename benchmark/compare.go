package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// Verdicts of a comparison row.
const (
	verdictImproved   = "improved"
	verdictNoWorse    = "no worse"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictNoBound    = "-" // per-layer metric without a gain: no bound to judge by
)

// minPairs is the number of pairs a gain needs before it counts.
const minPairs = 10

// failedRow is the row that sets the two sides' failed operations side by
// side; it is not a metric of the reports.
const failedRow = "failed"

// sideStats summarizes one side of a comparison row.
type sideStats struct {
	N           int
	Q1, Med, Q3 float64
}

// compareRow is one (workload, metric) pair across the two groups.
type compareRow struct {
	Workload, Metric, Unit string
	A, B                   sideStats
	Verdict                string
}

// runCompare prints every (metric, workload) row of two groups of result
// files, A (the parent) before "--" and B (the change) after it, and exits
// non-zero if any row regressed. Within a workload the i-th file of A pairs
// with the i-th of B, and the two must have the same seed, length and trace
// mode.
func runCompare(args []string, stdout, stderr io.Writer) int {
	split := slices.Index(args, "--")
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(stderr, "usage: benchmark -compare A.json... -- B.json...")
		return 2
	}
	load := func(paths []string) ([]*report, error) {
		var out []*report
		for _, p := range paths {
			r, err := readReport(p)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	a, err := load(args[:split])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := load(args[split+1:])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	rows, err := compareReports(a, b)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-13s %-30s %-7s %36s %36s  %s\n", "workload", "metric", "unit", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "verdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-13s %-30s %-7s %36s %36s  %s\n", r.Workload, r.Metric, r.Unit, r.A, r.B, r.Verdict)
		if r.Verdict == verdictRegressed {
			code = 1
		}
	}
	return code
}

func (s sideStats) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.Med, s.Q1, s.Q3, s.N)
}

// byWorkload groups reports by workload, keeping their order.
func byWorkload(reps []*report) map[string][]*report {
	out := make(map[string][]*report)
	for _, r := range reps {
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out
}

// compareReports builds, per workload, a row of failed operations and one
// row per metric present on both sides, in workload then metric order. It
// refuses groups that do not pair up: a workload on one side only, unequal
// run counts, or a pair whose seed, length or trace mode differ.
func compareReports(a, b []*report) ([]compareRow, error) {
	ga, gb := byWorkload(a), byWorkload(b)
	var workloads []string
	for w := range ga {
		workloads = append(workloads, w)
	}
	for w := range gb {
		if _, ok := ga[w]; !ok {
			return nil, fmt.Errorf("workload %s is only in B", w)
		}
	}
	sort.Strings(workloads)
	var rows []compareRow
	for _, w := range workloads {
		ra, rb := ga[w], gb[w]
		if len(ra) != len(rb) {
			return nil, fmt.Errorf("workload %s: %d runs in A, %d in B; the i-th run of A pairs with the i-th of B", w, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i].Seed != rb[i].Seed || ra[i].Seconds != rb[i].Seconds || ra[i].Trace != rb[i].Trace {
				return nil, fmt.Errorf("workload %s pair %d: A has seed %d, %d s, trace %d; B has seed %d, %d s, trace %d",
					w, i+1, ra[i].Seed, ra[i].Seconds, ra[i].Trace, rb[i].Seed, rb[i].Seconds, rb[i].Trace)
			}
		}
		rows = append(rows, workloadRows(w, ra, rb)...)
	}
	return rows, nil
}

// workloadRows compares the paired runs of one workload. The first row sets
// the failed operations side by side: B regressed if it failed more
// operations, or more runs, than A. Where any run on either side is
// incorrect, its values cannot be trusted, and every metric row reads
// unresolved.
func workloadRows(w string, a, b []*report) []compareRow {
	failures := func(reps []*report) (ops []float64, badRuns int) {
		for _, r := range reps {
			ops = append(ops, float64(r.Failed))
			if !r.Correct {
				badRuns++
			}
		}
		return ops, badRuns
	}
	fa, badA := failures(a)
	fb, badB := failures(b)
	failed := compareRow{Workload: w, Metric: failedRow, Unit: "count", A: stats(fa), B: stats(fb), Verdict: verdictNoWorse}
	if sum(fb) > sum(fa) || badB > badA {
		failed.Verdict = verdictRegressed
	}
	rows := []compareRow{failed}

	values := func(reps []*report) (map[string][]float64, map[string]metricValue) {
		vals := make(map[string][]float64)
		specs := make(map[string]metricValue)
		for _, r := range reps {
			for name, m := range r.Metrics {
				vals[name] = append(vals[name], m.Value)
				specs[name] = m
			}
		}
		return vals, specs
	}
	av, specs := values(a)
	bv, _ := values(b)
	var names []string
	for name := range av {
		if _, ok := bv[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		s := specs[name]
		v := verdictUnresolved
		if badA == 0 && badB == 0 {
			v = verdict(av[name], bv[name], s.Better, s.Bound)
		}
		rows = append(rows, compareRow{Workload: w, Metric: name, Unit: s.Unit, A: stats(av[name]), B: stats(bv[name]), Verdict: v})
	}
	return rows
}

func stats(v []float64) sideStats {
	q1, med, q3 := quartiles(v)
	return sideStats{N: len(v), Q1: q1, Med: med, Q3: q3}
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// verdict judges B (the change) against A (the parent), pairing runs by
// position:
//   - improved: there are at least minPairs pairs, B wins at least nine
//     tenths of them (ties count for neither), and the medians differ, in B's
//     favour, by more than A's interquartile distance. With fewer pairs such
//     a result reads unresolved;
//   - unresolved: either side's interquartile distance, as a share of its
//     median, is wider than the bound, unless every B run beats every A run;
//   - regressed: B's median is worse than A's by more than bound × A's median
//     (with a bound of 0, by anything at all);
//   - no worse: otherwise.
//
// Metrics without a bound (a negative one: per-layer metrics) are only judged
// on improvement.
func verdict(a, b []float64, better string, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	// gain is how much x is better than y, in the metric's direction.
	gain := func(x, y float64) float64 {
		if better == "higher" {
			return x - y
		}
		return y - x
	}
	q1a, medA, q3a := quartiles(a)
	q1b, medB, q3b := quartiles(b)
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if gain(b[i], a[i]) > 0 {
			wins++
		}
	}
	if float64(wins) >= 0.9*float64(pairs) && gain(medB, medA) > q3a-q1a {
		if pairs < minPairs {
			return verdictUnresolved
		}
		return verdictImproved
	}
	if bound < 0 {
		return verdictNoBound
	}
	spread := math.Max(relSpread(q1a, medA, q3a), relSpread(q1b, medB, q3b))
	if spread > bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				allBetter = allBetter && gain(x, y) > 0
			}
		}
		if allBetter {
			return verdictNoWorse
		}
		return verdictUnresolved
	}
	if -gain(medB, medA) > bound*math.Abs(medA) {
		return verdictRegressed
	}
	return verdictNoWorse
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(q1, med, q3 float64) float64 {
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}
