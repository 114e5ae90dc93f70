package main

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/fact"
	"emp/internal/obs"
	"emp/internal/server"
)

// inProcess is an empserve handler served by httptest, so the self-test
// needs no binary.
type inProcess struct {
	ts       *httptest.Server
	svc      *server.Service
	stateDir string
}

func (b *inProcess) URL() string                  { return b.ts.URL }
func (b *inProcess) PeakRSSMiB() (float64, error) { return peakRSSMiB(os.Getpid()) }
func (b *inProcess) StateBytes() (int64, error)   { return dirBytes(b.stateDir) }
func (b *inProcess) Stop() {
	b.ts.Close()
	_ = b.svc.Close() // the state dir is discarded with the test
}

func startInProcess(ctx context.Context, stateDir string) (backend, error) {
	svc := server.New(server.Config{Registry: obs.New(), StateDir: stateDir})
	for svc.Recovering() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		time.Sleep(time.Millisecond)
	}
	return &inProcess{ts: httptest.NewServer(svc.Handler()), svc: svc, stateDir: stateDir}, nil
}

// shrink cuts a workload down to a few requests on the 1k dataset: two
// anchor operations (for jobs_durable, one cold/warm pair), plus, for
// mixed_sync, a repeat of the first.
func shrink(t *testing.T, w *workload) {
	t.Helper()
	w.Ops = w.Ops[:2]
	w.Ops[0].Anchor, w.Ops[1].Anchor = true, true
	if w.Name == "mixed_sync" {
		w.Ops[0].Class, w.Ops[1].Class = classMiss, classMiss
		w.Ops[0].RepeatOf, w.Ops[1].RepeatOf = -1, -1
		hit := w.Ops[0]
		hit.Index, hit.Class, hit.RepeatOf = 2, classHit, 0
		w.Ops = append(w.Ops, hit)
	}
	for _, list := range [][]op{w.Warmup, w.Ops} {
		for i := range list {
			list[i].Dataset = "1k"
			if err := list[i].encode(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// summaryLine decodes the last line of the printed report.
func summaryLine(t *testing.T, out string) (line struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the summary object: %v\n%s", err, out)
	}
	return line
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			w, err := buildWorkload(name, 7, 1)
			if err != nil {
				t.Fatal(err)
			}
			shrink(t, w)
			cfg := runConfig{Seed: 7, Seconds: 1, Trace: trace, Start: startInProcess, Workdir: t.TempDir()}
			rep, tr, err := runWorkload(context.Background(), cfg, w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var out bytes.Buffer
			printReport(&out, rep)
			line := summaryLine(t, out.String())
			if line.Failed != 0 || line.Attempted != len(w.Ops) || (!trace && !line.Correct) {
				t.Fatalf("%s trace=%v: attempted=%d failed=%d\n%s", name, trace, line.Attempted, line.Failed, out.String())
			}
			// The timing checks need real request sizes; the counting ones
			// must hold on any.
			for _, c := range rep.Checks {
				if !c.OK && (c.Name == "result_hit_ratio_as_designed" || c.Name == "replay_matches_response") {
					t.Errorf("%s: check %s failed: %s", name, c.Name, c.Detail)
				}
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(line.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(line.Metrics), len(specs))
			}
			for _, m := range specs {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
			if trace {
				if len(tr.spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", name)
				}
				path := filepath.Join(t.TempDir(), "trace.jsonl")
				if err := tr.writeJSONL(path); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestCheckCatchesCorruptLabel(t *testing.T) {
	ds, err := census.NamedSeeded("1k", 3)
	if err != nil {
		t.Fatal(err)
	}
	const cons = "SUM(TOTALPOP) >= 20000"
	set, err := constraint.ParseSet(cons)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fact.Solve(ds, set, fact.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	resp := &server.SolveResponse{P: res.P, Unassigned: res.Unassigned, HeteroAfter: res.HeteroAfter,
		Assignment: fact.WarmAssignment(res.Partition)}
	if err := checkPartition(ds, cons, resp); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	// Move one assigned area to another region's label.
	area := 0
	for resp.Assignment[area] < 0 {
		area++
	}
	orig := resp.Assignment[area]
	resp.Assignment[area] = (orig + 1) % resp.P
	if err := checkPartition(ds, cons, resp); err == nil {
		t.Fatalf("relabelling area %d from %d to %d went unnoticed", area, orig, resp.Assignment[area])
	}
	resp.Assignment[area] = resp.P
	if err := checkPartition(ds, cons, resp); err == nil {
		t.Fatal("out-of-range label went unnoticed")
	}
}

func TestVerdictRules(t *testing.T) {
	parent := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	shift := func(by float64, losers ...int) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v - by
		}
		for _, i := range losers {
			out[i] = parent[i] + 0.01
		}
		return out
	}
	same := func(v float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	cases := []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"wins all pairs", parent, shift(0.1), "lower", 0.1, verdictImproved},
		{"wins nine of ten pairs", parent, shift(0.1, 3), "lower", 0.1, verdictImproved},
		{"wins eight of ten pairs", parent, shift(0.1, 3, 7), "lower", 0.1, verdictNoWorse},
		{"gain within the parent's spread", parent, shift(0.01), "lower", 0.1, verdictNoWorse},
		{"wins all of nine pairs", parent[:9], shift(0.1)[:9], "lower", 0.1, verdictUnresolved},
		{"worse beyond the bound", parent, shift(-0.2), "lower", 0.1, verdictRegressed},
		{"worse within the bound", parent, shift(-0.05), "lower", 0.1, verdictNoWorse},
		{"higher is better", parent, shift(0.2), "higher", 0.1, verdictRegressed},
		{"spread wider than the bound", []float64{1, 2, 1, 2, 1, 2}, []float64{1.5, 1.5, 1.5, 1.5, 1.5, 1.5}, "lower", 0.1, verdictUnresolved},
		{"wide spread but every run better", []float64{2, 3, 2, 3, 2, 3, 2, 3, 2, 3}, []float64{1, 1.5, 1, 1.5, 1.2, 1.4, 1, 1.5, 1, 1.5}, "lower", 0.1, verdictImproved},
		{"wide spread, every run better, few pairs", []float64{2, 3, 2, 3, 2, 3}, []float64{1, 1.5, 1, 1.5, 1.2, 1.4}, "lower", 0.1, verdictUnresolved},
		{"bound 0: one region fewer", same(2000, 10), same(1999.5, 10), "higher", 0, verdictRegressed},
		{"bound 0: unchanged", same(2000, 10), same(2000, 10), "higher", 0, verdictNoWorse},
		{"bound 0: one region more", same(2000, 10), same(2000.5, 10), "higher", 0, verdictImproved},
		{"no bound", parent, shift(-0.5), "lower", unbounded, verdictNoBound},
		{"no bound, improved", parent, shift(0.1), "lower", unbounded, verdictImproved},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// fakeReports makes one untraced run per seed with every end-to-end and
// timed-phase metric set to 1.
func fakeReports(workload string, seeds ...int64) []*report {
	var out []*report
	for _, s := range seeds {
		r := &report{Workload: workload, Seed: s, Seconds: 30, Correct: true, Attempted: 10, Metrics: make(map[string]metricValue)}
		addMetrics(r.Metrics, endToEnd, map[string]float64{})
		addMetrics(r.Metrics, timedPhase, map[string]float64{})
		for name, m := range r.Metrics {
			m.Value = 1
			r.Metrics[name] = m
		}
		out = append(out, r)
	}
	return out
}

func TestCompareRefusesMismatchedPairs(t *testing.T) {
	if _, err := compareReports(fakeReports("w", 1, 2), fakeReports("w", 1, 3)); err == nil {
		t.Error("pairs with different seeds were compared")
	}
	b := fakeReports("w", 1, 2)
	b[1].Seconds = 20
	if _, err := compareReports(fakeReports("w", 1, 2), b); err == nil {
		t.Error("pairs with different lengths were compared")
	}
	b = fakeReports("w", 1, 2)
	b[0].Trace = 1
	if _, err := compareReports(fakeReports("w", 1, 2), b); err == nil {
		t.Error("a traced run was paired with an untraced one")
	}
	if _, err := compareReports(fakeReports("w", 1, 2), fakeReports("w", 1)); err == nil {
		t.Error("unequal run counts were compared")
	}
	if _, err := compareReports(fakeReports("w", 1), append(fakeReports("w", 1), fakeReports("v", 1)...)); err == nil {
		t.Error("a workload present in B only was compared")
	}
	if _, err := compareReports(fakeReports("w", 1, 2), fakeReports("w", 1, 2)); err != nil {
		t.Errorf("matching pairs refused: %v", err)
	}
}

func TestCompareDistrustsFailedRuns(t *testing.T) {
	verdicts := func(a, b []*report) map[string]string {
		t.Helper()
		rows, err := compareReports(a, b)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string)
		for _, r := range rows {
			out[r.Metric] = r.Verdict
		}
		return out
	}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	got := verdicts(fakeReports("w", seeds...), fakeReports("w", seeds...))
	if got[failedRow] != verdictNoWorse || got["setup_s"] != verdictNoWorse || got["solve_p50_s"] != verdictNoBound {
		t.Errorf("identical runs: %v", got)
	}

	// A change whose failed requests leave a latency of 0 must not read as
	// faster: the failures regress and every metric is unresolved.
	b := fakeReports("w", seeds...)
	b[4].Correct, b[4].Failed = false, 3
	for _, r := range b {
		m := r.Metrics["solve_p50_s"]
		m.Value = 0
		r.Metrics["solve_p50_s"] = m
	}
	got = verdicts(fakeReports("w", seeds...), b)
	if got[failedRow] != verdictRegressed {
		t.Errorf("more failures in B: failed row %q, want %q", got[failedRow], verdictRegressed)
	}
	for name, v := range got {
		if name != failedRow && v != verdictUnresolved {
			t.Errorf("B has an incorrect run: %s reads %q, want %q", name, v, verdictUnresolved)
		}
	}

	// Failures only at the parent do not regress, but still void the rows.
	a := fakeReports("w", seeds...)
	a[0].Correct, a[0].Failed = false, 1
	got = verdicts(a, fakeReports("w", seeds...))
	if got[failedRow] != verdictNoWorse || got["solve_p50_s"] != verdictUnresolved {
		t.Errorf("A has an incorrect run: %v", got)
	}
}

func TestAnchorsAreTheSameForEverySeed(t *testing.T) {
	for _, name := range workloadNames {
		bodies := func(seed int64) (anchors, others map[string]bool) {
			w, err := buildWorkload(name, seed, 30)
			if err != nil {
				t.Fatal(err)
			}
			anchors, others = make(map[string]bool), make(map[string]bool)
			for _, o := range w.Ops {
				switch {
				case o.Class == classHit:
				case o.Anchor:
					anchors[string(o.Body)] = true
				default:
					others[string(o.Body)] = true
				}
			}
			return anchors, others
		}
		a1, o1 := bodies(1)
		a2, o2 := bodies(2)
		if len(a1) == 0 || !maps.Equal(a1, a2) {
			t.Errorf("%s: %d anchors at seed 1, %d at seed 2, equal %v", name, len(a1), len(a2), maps.Equal(a1, a2))
		}
		for b := range o1 {
			if o2[b] || a1[b] {
				t.Errorf("%s: a non-anchor request recurs: %s", name, b)
				break
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([1, 5], n=4).
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 5}, 0, 3, 6},
	} {
		q1, med, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestMixedRepeatsAreHits(t *testing.T) {
	w, err := buildWorkload("mixed_sync", 11, 30)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	hits := 0
	for i, o := range w.Ops {
		if o.Class == classHit {
			hits++
			if o.RepeatOf > i-mixedMinRepeatGap || !bytes.Equal(o.Body, w.Ops[o.RepeatOf].Body) {
				t.Fatalf("op %d repeats op %d: too close or not identical", i, o.RepeatOf)
			}
			continue
		}
		if j, dup := seen[string(o.Body)]; dup {
			t.Fatalf("ops %d and %d are identical originals", j, i)
		}
		seen[string(o.Body)] = i
	}
	if want := int(math.Round(float64(len(w.Ops)) * mixedRepeatShare)); hits != want {
		t.Errorf("%d repeats, want %d", hits, want)
	}
}

func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for i := range doc.PerLayer {
		doc.PerLayer[i].Bound = unbounded // per-layer metrics carry no bound
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
