// Command empserve hosts the EMP solver as a JSON-over-HTTP service.
//
// Usage:
//
//	empserve -addr :8080 [-debug-addr :8081] [-max-body 67108864] [-quiet]
//	         [-workers N] [-queue-depth N] [-queue-wait 10s]
//	         [-max-timeout 5m] [-drain-grace 15s]
//	         [-dataset-cache-mb 256] [-result-cache-mb 64]
//	         [-flight-recorder-mb 8] [-flight-recorder-traces 64]
//	         [-job-ttl 15m] [-job-results-mb 64] [-max-jobs 64]
//	         [-state-dir /var/lib/empserve] [-snapshot-interval 1m]
//	         [-checkpoint-interval 2s]
//
// Solves run on a bounded worker pool behind a FIFO queue; when the queue
// is full or a queued solve exceeds -queue-wait the request is shed with
// 429 and a Retry-After hint. Generated datasets and finished results are
// cached (see docs/SERVING.md); identical concurrent requests share one
// solve execution. Every solve runs under a deadline: the request's
// timeout_ms clamped to -max-timeout (docs/ROBUSTNESS.md).
//
// Endpoints (the whole surface lives under the /v1 prefix; bare paths get
// 404. All errors on every route arrive as one JSON envelope
// {"error":{"code","message",...}} — see docs/SERVING.md):
//
//	GET  /v1/healthz   liveness probe (200 while the process serves HTTP)
//	GET  /v1/readyz    readiness probe (503 while draining or queue-saturated;
//	                   the draining body reports still-active async jobs)
//	GET  /v1/datasets  list the named synthetic datasets
//	GET  /v1/metrics   Prometheus text metrics (solver + HTTP + histograms)
//	GET  /v1/debug/solves       in-flight solves (trace id, phase, p, H)
//	GET  /v1/debug/trace/{id}   span tree + convergence curve of a solve
//	GET  /v1/debug/cache        cache + flight-recorder + job-store occupancy
//
// Async jobs (see docs/JOBS.md):
//
//	POST   /v1/jobs              submit a solve (same body as /v1/solve);
//	                             202 + job id, Location header, status body
//	GET    /v1/jobs              list tracked jobs
//	GET    /v1/jobs/{id}         status: state, live incumbent p/H, result
//	GET    /v1/jobs/{id}/events  stream incumbent improvements as SSE
//	                             (Accept: text/event-stream) or NDJSON;
//	                             ?since=N resumes from sequence N
//	DELETE /v1/jobs/{id}         cancel (queued or running)
//
// Submitting an identical request while its job is active attaches to the
// existing job; a finished job on the same dataset seeds the next job's
// construction (warm start). Finished jobs stay fetchable for -job-ttl with
// results retained under a -job-results-mb byte budget; at most -max-jobs
// are queued or running at once (further submits get 429).
//
// Every request is one trace: an incoming W3C traceparent header is honored
// and the request span's identity is echoed back, so a client can fetch
// /v1/debug/trace/{trace_id} (or run `empquery trace <id>`) for the solve it
// just issued. Recent solves are retained in a byte-budgeted flight
// recorder sized by -flight-recorder-mb / -flight-recorder-traces.
//
//	POST /v1/solve  run an EMP query; body:
//	                {"named":"2k","scale":0.25,
//	                 "constraints":"MIN(POP16UP) <= 3000; SUM(TOTALPOP) >= 20k",
//	                 "timeout_ms":60000,
//	                 "options":{"seed":1}}
//	                or with an inline {"dataset":{...}} document in the
//	                schema produced by empgen.
//
// Datasets with several connected components are solved component-by-
// component on a process-wide worker pool sized to -workers
// (docs/SHARDING.md); the same pool runs cut sub-solves and multi-start
// iterations. Large single-component datasets can opt into cut-based
// sharding with "cut_shards" (>= 2 slices the graph along low-connectivity
// cuts, solves the parts concurrently and repairs the stitch seams;
// result-affecting, so it splits the cache fingerprint). Unknown keys in
// "options" are rejected with 400.
//
// With -state-dir set, the server keeps crash-safe state there (see
// docs/ROBUSTNESS.md): an append-only job journal re-admits queued/running
// jobs after a crash (even kill -9) under their original ids, running jobs
// checkpoint their incumbent every -checkpoint-interval so resumed solves
// warm-start instead of restarting, and the result cache + warm-seed index
// snapshot every -snapshot-interval and on shutdown. /v1/readyz answers 503
// {"status":"recovering"} while boot recovery runs. Torn or corrupt state
// files are truncated/skipped and counted in
// emp_durable_corrupt_records_total — they never fail boot. The flags are
// validated at startup (writable dir, positive intervals; exit 2 otherwise).
//
// With -debug-addr set, a second listener serves net/http/pprof under
// /debug/pprof/ and the expvar JSON (including an "emp" metrics snapshot)
// under /debug/vars. Keep it on a loopback or otherwise private address.
//
// The server shuts down gracefully on SIGINT/SIGTERM: /v1/readyz flips to
// 503 immediately so load balancers drain the instance (new job submits are
// refused the same moment), then after -drain-grace in-flight requests AND
// in-flight async jobs get up to 15 seconds to finish before the listener is
// torn down. Nonsensical flag values (negative -workers, -queue-depth below
// -1, non-positive -queue-wait, -max-body, -max-timeout, -job-ttl,
// -job-results-mb or negative -max-jobs) are rejected at startup with exit
// status 2.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"emp/internal/jobs"
	"emp/internal/obs"
	"emp/internal/obswire"
	"emp/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("empserve: ")
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		debugAddr  = flag.String("debug-addr", "", "optional debug listen address for pprof + expvar (e.g. 127.0.0.1:8081)")
		maxBody    = flag.Int64("max-body", server.DefaultMaxBodyBytes, "POST /v1/solve and /v1/jobs body size limit in bytes")
		quiet      = flag.Bool("quiet", false, "disable the per-request access log")
		workers    = flag.Int("workers", 0, "max concurrently executing solves (0 = GOMAXPROCS)")
		queueDep   = flag.Int("queue-depth", 0, "solves allowed to wait for a worker (0 = 4x workers, -1 = no queue)")
		queueWait  = flag.Duration("queue-wait", server.DefaultQueueWait, "max time a solve may wait queued before a 429")
		maxTimeout = flag.Duration("max-timeout", server.DefaultMaxSolveTimeout, "per-solve deadline ceiling; request timeout_ms is clamped to it")
		drainGrace = flag.Duration("drain-grace", 15*time.Second, "pause between flipping /v1/readyz to 503 and closing the listener, so load balancers observe the drain")
		dsCacheMB  = flag.Int64("dataset-cache-mb", server.DefaultDatasetCacheBytes>>20, "dataset artifact cache budget in MiB (negative disables)")
		resCacheMB = flag.Int64("result-cache-mb", server.DefaultResultCacheBytes>>20, "solve result cache budget in MiB (negative disables)")
		flightMB   = flag.Int64("flight-recorder-mb", server.DefaultFlightRecorderBytes>>20, "flight-recorder trace retention budget in MiB")
		flightN    = flag.Int("flight-recorder-traces", server.DefaultFlightRecorderTraces, "finished traces retained for /v1/debug/trace")
		jobTTL     = flag.Duration("job-ttl", jobs.DefaultTTL, "how long finished async jobs stay fetchable on /v1/jobs/{id}")
		jobResMB   = flag.Int64("job-results-mb", jobs.DefaultRetainBytes>>20, "byte budget for results retained across finished async jobs, in MiB")
		maxJobs    = flag.Int("max-jobs", jobs.DefaultMaxActive, "max queued+running async jobs; submits past it get 429 (0 = default)")
		stateDir   = flag.String("state-dir", "", "directory for crash-safe state (job journal, solve checkpoints, cache snapshot); empty disables persistence")
		snapEvery  = flag.Duration("snapshot-interval", server.DefaultSnapshotInterval, "how often the result-cache/warm-seed snapshot is written (requires -state-dir)")
		ckptEvery  = flag.Duration("checkpoint-interval", server.DefaultCheckpointInterval, "min spacing between incumbent checkpoints of a running job (requires -state-dir)")
	)
	flag.Parse()
	if err := validateFlags(*workers, *queueDep, *queueWait, *maxBody, *maxTimeout, *drainGrace); err != nil {
		log.Print(err)
		flag.Usage()
		os.Exit(2)
	}
	if err := validateJobFlags(*jobTTL, *jobResMB, *maxJobs); err != nil {
		log.Print(err)
		flag.Usage()
		os.Exit(2)
	}
	if err := validateDurableFlags(*stateDir, *snapEvery, *ckptEvery); err != nil {
		log.Print(err)
		flag.Usage()
		os.Exit(2)
	}

	// Wire the solver packages into the process-wide registry so /v1/metrics
	// reflects every solve served by this process.
	reg := obs.Default()
	reg.SetEnabled(true)
	obswire.Enable(reg)
	expvar.Publish("emp", expvar.Func(func() any { return reg.Snapshot() }))

	mb := func(v int64) int64 {
		if v < 0 {
			return -1 // disable the cache
		}
		return v << 20
	}
	cfg := server.Config{
		Registry:          reg,
		MaxBodyBytes:      *maxBody,
		Workers:           *workers,
		QueueDepth:        *queueDep,
		QueueWait:         *queueWait,
		MaxSolveTimeout:   *maxTimeout,
		DatasetCacheBytes: mb(*dsCacheMB),
		ResultCacheBytes:  mb(*resCacheMB),

		FlightRecorderBytes:  *flightMB << 20,
		FlightRecorderTraces: *flightN,

		JobTTL:         *jobTTL,
		JobRetainBytes: *jobResMB << 20,
		MaxActiveJobs:  *maxJobs,

		StateDir:           *stateDir,
		SnapshotInterval:   *snapEvery,
		CheckpointInterval: *ckptEvery,
	}
	if !*quiet {
		cfg.AccessLog = os.Stderr
	}
	svc := server.New(cfg)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           debugMux(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Printf("debug listening on %s (pprof + expvar)", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("debug server: %v", err)
			}
		}()
		defer dbg.Close()
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills hard
		// Flip readiness first so load balancers stop routing here, keep
		// serving in-flight (and newly arriving) requests through the drain
		// grace, then tear the listener down.
		svc.SetDraining(true)
		log.Printf("draining: /v1/readyz now 503, waiting %s before closing the listener", *drainGrace)
		select {
		case <-time.After(*drainGrace):
		case err := <-errc:
			if err != nil && err != http.ErrServerClosed {
				log.Fatal(err)
			}
		}
		log.Printf("shutting down (in-flight requests and jobs get 15s)")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		// Async jobs outlive their submit requests, so http.Server.Shutdown
		// alone would not wait for them: drain the job runners explicitly
		// under the same budget before tearing the listener down.
		if n := svc.InflightJobs(); n > 0 {
			log.Printf("waiting for %d in-flight async job(s)", n)
			if !svc.DrainJobs(shutdownCtx) {
				log.Printf("shutdown budget elapsed with %d job(s) still running", svc.InflightJobs())
			}
		}
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		// Final durable snapshot + journal close, after the drain so the
		// snapshot carries everything the drained jobs produced.
		if err := svc.Close(); err != nil {
			log.Printf("close: %v", err)
		}
	}
}

// validateFlags rejects nonsensical serving configurations at startup, before
// any listener binds: a misconfigured instance exiting with status 2 is
// diagnosable, the same instance silently "defaulting" mid-traffic is not.
func validateFlags(workers, queueDep int, queueWait time.Duration, maxBody int64, maxTimeout, drainGrace time.Duration) error {
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", workers)
	}
	if queueDep < -1 {
		return fmt.Errorf("-queue-depth must be >= -1 (-1 = no queue, 0 = 4x workers), got %d", queueDep)
	}
	if queueWait <= 0 {
		return fmt.Errorf("-queue-wait must be positive, got %v", queueWait)
	}
	if maxBody <= 0 {
		return fmt.Errorf("-max-body must be positive, got %d", maxBody)
	}
	if maxTimeout <= 0 {
		return fmt.Errorf("-max-timeout must be positive, got %v", maxTimeout)
	}
	if drainGrace < 0 {
		return fmt.Errorf("-drain-grace must be >= 0, got %v", drainGrace)
	}
	return nil
}

// validateJobFlags applies the same fail-at-startup policy to the async job
// store's sizing flags.
func validateJobFlags(ttl time.Duration, resMB int64, maxJobs int) error {
	if ttl <= 0 {
		return fmt.Errorf("-job-ttl must be positive, got %v", ttl)
	}
	if resMB <= 0 {
		return fmt.Errorf("-job-results-mb must be positive, got %d", resMB)
	}
	if maxJobs < 0 {
		return fmt.Errorf("-max-jobs must be >= 0 (0 = default), got %d", maxJobs)
	}
	return nil
}

// validateDurableFlags vets the crash-safety configuration before the
// listener binds. A state dir that cannot actually be written to would
// silently disable persistence at the first journal append — probe it with a
// real file instead, so the operator finds out at startup with exit 2.
func validateDurableFlags(stateDir string, snapInterval, ckptInterval time.Duration) error {
	if stateDir == "" {
		return nil // persistence off; intervals are irrelevant
	}
	if snapInterval <= 0 {
		return fmt.Errorf("-snapshot-interval must be positive, got %v", snapInterval)
	}
	if ckptInterval <= 0 {
		return fmt.Errorf("-checkpoint-interval must be positive, got %v", ckptInterval)
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return fmt.Errorf("-state-dir %q is not usable: %v", stateDir, err)
	}
	probe, err := os.CreateTemp(stateDir, ".empserve-probe-*")
	if err != nil {
		return fmt.Errorf("-state-dir %q is not writable: %v", stateDir, err)
	}
	name := probe.Name()
	probe.Close()
	os.Remove(name)
	return nil
}

// debugMux serves pprof and expvar on the opt-in debug listener. The routes
// are registered on a private mux (not http.DefaultServeMux) so nothing
// leaks onto the public API listener.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}
