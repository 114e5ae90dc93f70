// Command benchmark measures empserve end to end. It starts the empserve
// binary it is given as a separate process on a loopback port (one process
// per workload), drives one of three fixed workloads over HTTP from this
// process, checks every returned partition, and prints every end-to-end
// metric with its name and unit. With -trace 1 it then replays each
// cache-missing request through the packages the server calls and reports
// per-layer metrics instead. -compare sets two groups of result files side
// by side. See README.md; run it through run.sh, which builds both binaries.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// envInfo records where a result was measured.
type envInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

// currentEnv describes this process. The commit comes from the version
// control stamp of the build, "unknown" when built outside a repository.
func currentEnv() envInfo {
	env := envInfo{GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && env.Commit != "unknown" {
			env.Commit += "+modified"
		}
	}
	return env
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only     = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
		seed     = fs.Int64("seed", 1, "seed of every dataset seed, solver seed and request order")
		seconds  = fs.Int("seconds", 25, "run length: request counts are scaled to about this many seconds")
		trace    = fs.Int("trace", 0, "1 replays the requests and reports per-layer metrics instead of end-to-end ones")
		empserve = fs.String("empserve", ".bench_build/bin/empserve", "empserve binary to measure")
		workdir  = fs.String("workdir", ".bench_build/run", "scratch directory for server state")
		out      = fs.String("out", ".bench_build/results", "directory for result and trace files")
		compare  = fs.Bool("compare", false, "compare result files: -compare A.json... -- B.json...")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	names := workloadNames
	if *only != "all" {
		names = []string{*only}
	}
	// Generate every workload up front so a bad flag fails before any
	// server starts.
	var loads []*workload
	for _, name := range names {
		w, err := buildWorkload(name, *seed, *seconds)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		loads = append(loads, w)
	}
	if _, err := os.Stat(*empserve); err != nil {
		fmt.Fprintf(stderr, "benchmark: empserve binary: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}

	start := func(ctx context.Context, stateDir string) (backend, error) {
		return startServer(ctx, *empserve, stateDir)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Start: start, Workdir: scratch}
	code := 0
	for _, w := range loads {
		rep, tr, err := runWorkload(ctx, cfg, w)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
			return 1
		}
		if err := writeResults(*out, rep, tr); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		printReport(stdout, rep)
		if !rep.Correct {
			code = 1
		}
	}
	return code
}

// writeResults writes the report as JSON, and with a tracer the spans as
// trace-<workload>.jsonl, into dir. A traced report first picks up the
// tracing overhead against the newest matching untraced report in dir.
func writeResults(dir string, rep *report, tr *tracer) error {
	kind := "untraced"
	if rep.Trace == 1 {
		kind = "traced"
		if base, ok := newestUntraced(dir, rep); ok {
			rep.TracingOverhead = make(map[string]float64)
			for name, v := range rep.E2E {
				if b, ok := base.Metrics[name]; ok {
					rep.TracingOverhead[name] = v.Value - b.Value
				}
			}
		}
		if err := tr.writeJSONL(filepath.Join(dir, "trace-"+rep.Workload+".jsonl")); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-%s-%s.json", rep.Workload, rep.Seed, kind, time.Now().UTC().Format("20060102T150405.000"))
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// newestUntraced finds the newest untraced report in dir with the same
// workload, seed and length as rep.
func newestUntraced(dir string, rep *report) (*report, bool) {
	paths, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("%s-seed%d-untraced-*.json", rep.Workload, rep.Seed)))
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	for _, p := range paths {
		r, err := readReport(p)
		if err == nil && r.Seconds == rep.Seconds {
			return r, true
		}
	}
	return nil, false
}

// readReport loads one result file.
func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Workload == "" || r.Metrics == nil {
		return nil, fmt.Errorf("%s: not a benchmark result", path)
	}
	return &r, nil
}

// printReport prints the metrics as a table and, as the last line, the
// summary object: correct, attempted, failed and the value and unit of every
// end-to-end metric (untraced) or per-layer metric (traced). The table of an
// untraced run also shows the timed-phase metrics.
func printReport(w io.Writer, rep *report) {
	specs, table := endToEnd, append(append([]metricSpec(nil), endToEnd...), timedPhase...)
	mode := "end-to-end"
	if rep.Trace == 1 {
		specs, table, mode = perLayer, perLayer, "per-layer"
	}
	fmt.Fprintf(w, "%s (seed %d, %d s, %s): %d attempted, %d failed\n", rep.Workload, rep.Seed, rep.Seconds, mode, rep.Attempted, rep.Failed)
	for _, m := range table {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", m.Name, rep.Metrics[m.Name].Value, m.Unit)
	}
	for _, c := range rep.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  check %-28s %s: %s\n", c.Name, status, c.Detail)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, make(map[string]value, len(specs))}
	for _, m := range specs {
		line.Metrics[m.Name] = value{rep.Metrics[m.Name].Value, m.Unit}
	}
	b, _ := json.Marshal(line) // cannot fail: strings and finite numbers only
	fmt.Fprintf(w, "%s\n", b)
}
