package server

import (
	"fmt"
	"net/http"
	"strings"

	"emp/internal/flight"
)

// Debug endpoints expose the flight-recorder store and the cache layer for
// live introspection. They are mounted only under /v1/debug/ (never the bare
// prefix) and serve read-only JSON snapshots; nothing here mutates service
// state, so the handlers need no method beyond GET.

// handleDebugSolves lists in-flight solves: trace id, dataset label, current
// phase, elapsed wall time and the incumbent (p, H).
func (s *service) handleDebugSolves(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, r, http.StatusMethodNotAllowed, fmt.Sprintf("method %s not allowed; use GET", r.Method), nil)
		return
	}
	rows := s.fstore.Inflight()
	if rows == nil {
		rows = []flight.InflightSolve{} // JSON [] rather than null
	}
	writeJSON(w, http.StatusOK, map[string]any{"solves": rows})
}

// handleDebugTrace serves one recorded solve: the reconstructed span tree and
// the convergence curve, keyed by the trace id the solve's traceparent
// response header carried.
func (s *service) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, r, http.StatusMethodNotAllowed, fmt.Sprintf("method %s not allowed; use GET", r.Method), nil)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/debug/trace/")
	if id == "" || strings.Contains(id, "/") {
		s.writeError(w, r, http.StatusBadRequest, "expected /v1/debug/trace/{trace_id}", nil)
		return
	}
	dump, ok := s.fstore.Trace(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound,
			fmt.Sprintf("trace %q not found: it never existed, or aged out of the flight recorder", id), nil)
		return
	}
	writeJSON(w, http.StatusOK, dump)
}

// handleDebugCache reports occupancy and hit rates of the dataset artifact
// cache and the result cache (where every finished answer, sync or async,
// lives), the flight-recorder store, the job store's records, and, under a
// state dir, the durable layer's counters.
func (s *service) handleDebugCache(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, r, http.StatusMethodNotAllowed, fmt.Sprintf("method %s not allowed; use GET", r.Method), nil)
		return
	}
	out := map[string]any{
		"dataset_cache":   s.dsCache.Stats(),
		"result_cache":    s.resCache.Stats(),
		"flight_recorder": s.fstore.StoreStats(),
		"jobs":            s.jobs.StoreStats(),
	}
	if s.stateDir != "" {
		out["durable"] = map[string]any{
			"state_dir":           s.stateDir,
			"recovering":          s.recovering.Load(),
			"warm_seeds":          len(s.jobs.WarmSeeds()),
			"corrupt_records":     s.durMet.CorruptRecords.Value(),
			"checkpoints_written": s.durMet.CheckpointsWritten.Value(),
			"snapshots_saved":     s.durMet.SnapshotsSaved.Value(),
			"recovered_jobs":      s.durMet.RecoveredJobs.Value(),
		}
	}
	writeJSON(w, http.StatusOK, out)
}
