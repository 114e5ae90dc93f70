package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"emp/internal/flight"
)

// runTrace implements the `empquery trace` subcommand: render a recorded
// solve's span tree with per-phase durations as an ASCII tree, plus its
// convergence curve.
//
//	empquery trace t.jsonl                  # offline: a captured JSONL stream
//	empquery trace -addr http://host:8080 4bf92f3577b34da6a3ce929d0e0e4736
//
// A file argument is parsed as an obs JSONL event stream (as written by
// `empbench -trace t.jsonl`) and every trace in it is rendered. Anything else is treated as a trace id and fetched from a live
// server's /v1/debug/trace/{id} endpoint.
func runTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "server base URL for trace-id lookups")
	curve := fs.Bool("curve", false, "also print the convergence curve samples")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: empquery trace [-addr URL] [-curve] <trace-id | events.jsonl>")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	target := fs.Arg(0)
	if _, err := os.Stat(target); err == nil {
		renderTraceFile(target, *curve)
		return
	}
	renderTraceRemote(*addr, target, *curve)
}

// renderTraceFile renders every trace found in a captured JSONL stream.
func renderTraceFile(path string, curve bool) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	byTrace, order, err := flight.ParseJSONL(f)
	if err != nil {
		log.Fatalf("parsing %s: %v", path, err)
	}
	if len(order) == 0 {
		log.Fatalf("%s contains no identified span events", path)
	}
	for i, id := range order {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("trace %s (%d spans)\n", id, len(byTrace[id]))
		if err := flight.WriteTree(os.Stdout, flight.BuildTree(byTrace[id])); err != nil {
			log.Fatal(err)
		}
	}
	_ = curve // offline streams carry span events only; curves live server-side
}

// renderTraceRemote fetches /v1/debug/trace/{id} and renders the dump.
func renderTraceRemote(addr, id string, curve bool) {
	url := strings.TrimSuffix(addr, "/") + "/v1/debug/trace/" + id
	resp, err := http.Get(url)
	if err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: %s (is %q a live or retained trace id, and the address right?)", url, resp.Status, id)
	}
	var dump flight.TraceDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		log.Fatalf("decoding trace: %v", err)
	}
	state := "finished"
	if dump.InFlight {
		state = "in flight"
	}
	fmt.Printf("trace %s  dataset=%s  %s  (%d spans, %d curve samples)\n",
		dump.TraceID, dump.Dataset, state, len(dump.Spans), len(dump.Curve))
	if dump.DroppedSpans > 0 {
		fmt.Printf("dropped: %d spans\n", dump.DroppedSpans)
	}
	if err := flight.WriteTree(os.Stdout, dump.Tree); err != nil {
		log.Fatal(err)
	}
	if len(dump.Curve) > 0 {
		final := dump.Curve[len(dump.Curve)-1]
		fmt.Printf("converged: p=%d H=%.4g after %s\n",
			final.P, final.H, time.Duration(final.ElapsedNs).Truncate(time.Microsecond))
	}
	if curve {
		fmt.Println("curve:")
		for _, s := range dump.Curve {
			fmt.Printf("  %12s  phase=%-12s p=%-5d H=%-14.6g moves=%d\n",
				time.Duration(s.ElapsedNs).Truncate(time.Microsecond), s.Phase, s.P, s.H, s.Moves)
		}
	}
}
