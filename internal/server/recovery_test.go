package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"emp/internal/census"
	"emp/internal/durable"
	"emp/internal/fault"
	"emp/internal/obs"
)

// solveIdentity computes the fingerprint and dataset key the server would
// assign a request body, via a throwaway stateless service.
func solveIdentity(t *testing.T, body string) (fp, dsKey string) {
	t.Helper()
	sv := New(Config{Registry: obs.New()})
	t.Cleanup(func() { sv.Close() })
	req, set, _, errMsg := sv.s.parseSolveRequest([]byte(body))
	if errMsg != "" {
		t.Fatalf("parseSolveRequest(%q): %s", body, errMsg)
	}
	return solveFingerprint(req, set), jobDatasetKey(req)
}

// writeJournalSubmit crafts a state dir whose journal holds one pending
// submit record — exactly what a crash right after admission leaves behind.
func writeJournalSubmit(t *testing.T, dir, id, body string) (fp string) {
	t.Helper()
	fp, dsKey := solveIdentity(t, body)
	j, _, err := durable.Open(filepath.Join(dir, "jobs.journal"), durable.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(durable.Record{
		Kind: durable.RecordSubmit, JobID: id, Fingerprint: fp,
		DatasetKey: dsKey, Dataset: "1k", Body: json.RawMessage(body),
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return fp
}

func waitRecovered(t *testing.T, sv *Service) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for sv.Recovering() {
		if time.Now().After(deadline) {
			t.Fatal("service never left the recovering state")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func newRecoveryService(t *testing.T, dir string) (*Service, http.Handler, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	sv := New(Config{Registry: reg, Workers: 1, StateDir: dir})
	t.Cleanup(func() { sv.Close() })
	return sv, sv.Handler(), reg
}

// TestRecoveryReadmitsJournaledJob: a journaled submit with no terminal state
// is re-admitted on boot under its original id, runs to done, and the journal
// afterwards shows nothing pending — the next boot replays no work.
func TestRecoveryReadmitsJournaledJob(t *testing.T) {
	dir := t.TempDir()
	const id = "aaaaaaaaaaaaaaaa"
	writeJournalSubmit(t, dir, id, jobBody)

	sv, h, reg := newRecoveryService(t, dir)
	waitRecovered(t, sv)
	final := waitJobTerminal(t, h, id)
	if final.State != "done" || final.Result == nil {
		t.Fatalf("recovered job = %+v, want done with a result", final)
	}
	if final.ID != id {
		t.Fatalf("recovered job id = %q, want the journaled %q", final.ID, id)
	}
	if got := counterValue(reg, "emp_durable_recovered_jobs_total"); got != 1 {
		t.Errorf("recovered_jobs_total = %d, want 1", got)
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	// The done transition was journaled: a fresh replay has no pending work.
	_, replay, err := durable.Open(filepath.Join(dir, "jobs.journal"), durable.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if pend := durable.Pending(replay.Records); len(pend) != 0 {
		t.Fatalf("journal still pending after done: %+v", pend)
	}
	if replay.Corrupt != 0 {
		t.Errorf("clean shutdown left %d corrupt records", replay.Corrupt)
	}
}

// TestRecoveryCheckpointWarmResume: a checkpoint matching the journaled job's
// fingerprint warm-starts the resumed solve (warm_from = "checkpoint") and
// the final answer is never worse than the checkpointed incumbent.
func TestRecoveryCheckpointWarmResume(t *testing.T) {
	// A finished cold solve donates a realistic incumbent assignment.
	h0, _ := newServingHandler(t, Config{})
	rec := postSolve(h0, jobBody, "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("donor solve = %d: %s", rec.Code, rec.Body.String())
	}
	var donor SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &donor); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	const id = "bbbbbbbbbbbbbbbb"
	fp := writeJournalSubmit(t, dir, id, jobBody)
	ckDir := filepath.Join(dir, "checkpoints")
	if err := durable.WriteCheckpoint(ckDir, durable.Checkpoint{
		JobID: id, Fingerprint: fp, DatasetKey: "dk",
		P: donor.P, H: donor.HeteroAfter, Moves: donor.TabuMoves, Assign: donor.Assignment,
	}); err != nil {
		t.Fatal(err)
	}

	sv, h, _ := newRecoveryService(t, dir)
	waitRecovered(t, sv)
	final := waitJobTerminal(t, h, id)
	if final.State != "done" || final.Result == nil {
		t.Fatalf("resumed job = %+v, want done", final)
	}
	if final.WarmFrom != "checkpoint" {
		t.Errorf("warm_from = %q, want checkpoint", final.WarmFrom)
	}
	if final.Result.P < donor.P {
		t.Errorf("resumed p = %d, worse than checkpointed %d", final.Result.P, donor.P)
	}
	if final.Result.P == donor.P && final.Result.HeteroAfter > donor.HeteroAfter+1e-9 {
		t.Errorf("resumed H = %g, worse than checkpointed %g", final.Result.HeteroAfter, donor.HeteroAfter)
	}
}

// TestRecoveryMismatchedCheckpointIgnored: a checkpoint whose fingerprint
// does not match the recomputed request fingerprint is dropped (counted,
// removed), and the job re-runs cold rather than warm-starting from the
// wrong problem.
func TestRecoveryMismatchedCheckpointIgnored(t *testing.T) {
	dir := t.TempDir()
	const id = "cccccccccccccccc"
	writeJournalSubmit(t, dir, id, jobBody)
	ckDir := filepath.Join(dir, "checkpoints")
	if err := durable.WriteCheckpoint(ckDir, durable.Checkpoint{
		JobID: id, Fingerprint: "not-this-request", DatasetKey: "dk",
		P: 99, H: 0, Assign: []int{0, 1, 2},
	}); err != nil {
		t.Fatal(err)
	}

	sv, h, reg := newRecoveryService(t, dir)
	waitRecovered(t, sv)
	final := waitJobTerminal(t, h, id)
	if final.State != "done" {
		t.Fatalf("job = %+v, want done", final)
	}
	if final.WarmFrom != "" {
		t.Errorf("warm_from = %q, want cold (mismatched checkpoint must not seed)", final.WarmFrom)
	}
	if got := counterValue(reg, "emp_durable_corrupt_records_total"); got < 1 {
		t.Errorf("corrupt_records_total = %d, want >= 1 for the mismatched checkpoint", got)
	}
	// The mismatched file was removed at recovery; the cold re-run writes its
	// own (correct) checkpoints, removed by the terminal-transition hook —
	// which commits just after the status flips to done, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(durable.CheckpointPath(ckDir, id)); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Error("checkpoint still on disk after terminal transition")
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRecoverySnapshotRestoresCacheAndSeeds: results and warm seeds snapshot
// on drain survive a restart — the pre-restart job's status reads as it did
// before, the restored boot serves the same request from cache, and a
// sibling request on the same dataset warm-starts from the pre-restart
// job's id.
func TestRecoverySnapshotRestoresCacheAndSeeds(t *testing.T) {
	dir := t.TempDir()
	svA, hA, _ := newRecoveryService(t, dir)
	waitRecovered(t, svA)
	rec, st := postJob(t, hA, jobBody)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
	}
	done := waitJobTerminal(t, hA, st.ID)
	if done.State != "done" {
		t.Fatalf("job = %+v", done)
	}
	if err := svA.Close(); err != nil { // drain snapshot
		t.Fatal(err)
	}

	svB, hB, regB := newRecoveryService(t, dir)
	waitRecovered(t, svB)
	hits0 := counterValue(regB, "emp_result_cache_hits_total")
	// The pre-restart job reads as it did: its label, (p, H) and answer.
	code, old := getJob(t, hB, st.ID)
	if code != http.StatusOK || old.State != "done" {
		t.Fatalf("pre-restart job after restart: %d %+v", code, old)
	}
	if old.Dataset != done.Dataset || old.P != done.P || old.H != done.H {
		t.Errorf("pre-restart job after restart reads dataset %q p=%d h=%g, want %q p=%d h=%g",
			old.Dataset, old.P, old.H, done.Dataset, done.P, done.H)
	}
	if old.Result == nil || !slices.Equal(old.Result.Assignment, done.Result.Assignment) {
		t.Errorf("pre-restart job after restart lost its answer: %+v", old.Result)
	}
	// The identical request is a restored-cache hit on the sync path, and
	// the status read above counted no lookup.
	rec2 := postSolve(hB, jobBody, "", nil)
	if rec2.Code != http.StatusOK {
		t.Fatalf("restored solve = %d: %s", rec2.Code, rec2.Body.String())
	}
	if got := counterValue(regB, "emp_result_cache_hits_total"); got != hits0+1 {
		t.Errorf("result cache hits after restore = %d, want %d", got, hits0+1)
	}
	var cached SolveResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &cached); err != nil {
		t.Fatal(err)
	}
	if cached.P != done.Result.P || cached.HeteroAfter != done.Result.HeteroAfter {
		t.Errorf("restored result (p=%d h=%g) != original (p=%d h=%g)",
			cached.P, cached.HeteroAfter, done.Result.P, done.Result.HeteroAfter)
	}
	// A perturbed request on the same dataset warm-starts from the restored
	// seed, attributed to the pre-restart job id.
	variant := `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 21000","options":{"seed":5}}`
	rec3, st3 := postJob(t, hB, variant)
	if rec3.Code != http.StatusAccepted {
		t.Fatalf("variant submit = %d: %s", rec3.Code, rec3.Body.String())
	}
	if st3.WarmFrom != st.ID {
		t.Errorf("variant warm_from = %q, want restored seed job %q", st3.WarmFrom, st.ID)
	}
	if fin := waitJobTerminal(t, hB, st3.ID); fin.State != "done" {
		t.Fatalf("variant job = %+v", fin)
	}
}

// TestRecoveryCorruptStateBootsClean: garbage in both the journal and the
// snapshot must never fail boot — the server comes up serving, counts the
// damage, and a journaled job ahead of a torn tail still resumes.
func TestRecoveryCorruptStateBootsClean(t *testing.T) {
	dir := t.TempDir()
	const id = "dddddddddddddddd"
	writeJournalSubmit(t, dir, id, jobBody)
	// Torn tail: a frame header promising 100 payload bytes, then only 10.
	jf, err := os.OpenFile(filepath.Join(dir, "jobs.journal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var torn [8]byte
	binary.LittleEndian.PutUint32(torn[0:4], 100)
	jf.Write(torn[:])
	jf.Write(bytes.Repeat([]byte{0xAB}, 10))
	jf.Close()
	// Snapshot: pure garbage.
	if err := os.WriteFile(filepath.Join(dir, "cache.snapshot"), bytes.Repeat([]byte{0xCD}, 64), 0o644); err != nil {
		t.Fatal(err)
	}

	sv, h, reg := newRecoveryService(t, dir)
	waitRecovered(t, sv)
	if got := counterValue(reg, "emp_durable_corrupt_records_total"); got < 2 {
		t.Errorf("corrupt_records_total = %d, want >= 2 (torn journal tail + snapshot)", got)
	}
	// The record ahead of the tear survived: the job resumes and finishes.
	if final := waitJobTerminal(t, h, id); final.State != "done" {
		t.Fatalf("job ahead of torn tail = %+v, want done", final)
	}
	// And the server serves fresh traffic normally.
	if rec := postSolve(h, jobBody, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("solve after corrupt boot = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestRecoveryRemovedOptionDropped: a journaled body that no longer passes
// validation — an option key the server no longer accepts, or a value it
// now rejects — fails re-validation on boot. The record is counted as
// corrupt and its job retired, and boot still reaches ready and serves.
func TestRecoveryRemovedOptionDropped(t *testing.T) {
	for _, tc := range []struct{ name, options string }{
		{"removed-key", `{"seed":5,"shard_off":true}`},
		{"removed-local-search", `{"seed":5,"local_search":"anneal"}`},
		{"negative-iterations", `{"seed":5,"iterations":-1}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			const id = "eeeeeeeeeeeeeeee"
			body := `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000","options":` + tc.options + `}`
			j, _, err := durable.Open(filepath.Join(dir, "jobs.journal"), durable.Metrics{})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(durable.Record{
				Kind: durable.RecordSubmit, JobID: id, Fingerprint: "stale",
				DatasetKey: "1k", Dataset: "1k", Body: json.RawMessage(body),
			}); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			sv, h, reg := newRecoveryService(t, dir)
			waitRecovered(t, sv)
			if got := counterValue(reg, "emp_durable_corrupt_records_total"); got != 1 {
				t.Errorf("corrupt_records_total = %d, want 1", got)
			}
			if code, _ := getJob(t, h, id); code != http.StatusNotFound {
				t.Errorf("GET dropped job = %d, want 404", code)
			}
			if rec := postSolve(h, jobBody, "", nil); rec.Code != http.StatusOK {
				t.Fatalf("solve after dropping the journaled job = %d: %s", rec.Code, rec.Body.String())
			}
			if err := sv.Close(); err != nil {
				t.Fatal(err)
			}
			// The retirement was journaled: the next boot replays nothing.
			_, replay, err := durable.Open(filepath.Join(dir, "jobs.journal"), durable.Metrics{})
			if err != nil {
				t.Fatal(err)
			}
			if pend := durable.Pending(replay.Records); len(pend) != 0 {
				t.Fatalf("journal still pending after the drop: %+v", pend)
			}
		})
	}
}

// TestReadyzRecoveringWindow: while boot recovery runs, /readyz answers 503
// {"status":"recovering"}; once it finishes, 200. A delay rule on the
// recover site holds the window open long enough to observe.
func TestReadyzRecoveringWindow(t *testing.T) {
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: durable.SiteRecover, Kind: fault.KindDelay, Delay: 250 * time.Millisecond, Times: 1},
	}})
	defer fault.Enable(nil)

	sv, h, _ := newRecoveryService(t, t.TempDir())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "recovering") {
		t.Fatalf("readyz during recovery = %d %s, want 503 recovering", rec.Code, rec.Body.String())
	}
	waitRecovered(t, sv)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz after recovery = %d %s, want 200", rec.Code, rec.Body.String())
	}
}

// TestRecoverySnapshotWriteFailureKeepsPrevious: a snapshot write that dies
// mid-flight (fault on the atomic-write site) must leave the previous
// snapshot serving — the next boot restores from it as if the failed write
// never happened.
func TestRecoverySnapshotWriteFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	svA, hA, _ := newRecoveryService(t, dir)
	waitRecovered(t, svA)
	rec, st := postJob(t, hA, jobBody)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", rec.Code)
	}
	waitJobTerminal(t, hA, st.ID)
	if err := svA.Close(); err != nil { // good snapshot v1
		t.Fatal(err)
	}

	svB, hB, _ := newRecoveryService(t, dir)
	waitRecovered(t, svB)
	// Fresh work that would enter snapshot v2 …
	variant := `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 22000","options":{"seed":5}}`
	if rec := postSolve(hB, variant, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("variant solve = %d", rec.Code)
	}
	// … but the drain snapshot fails.
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: durable.SiteSnapshotWrite, Kind: fault.KindError, Times: 1 << 30},
	}})
	errClose := svB.Close()
	fault.Enable(nil)
	_ = errClose // Close reports journal errors, not snapshot ones; the log carries the warning

	// Boot C still restores v1: the original job's result is a cache hit.
	svC, hC, regC := newRecoveryService(t, dir)
	waitRecovered(t, svC)
	hits0 := counterValue(regC, "emp_result_cache_hits_total")
	if rec := postSolve(hC, jobBody, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("solve after failed snapshot = %d", rec.Code)
	}
	if got := counterValue(regC, "emp_result_cache_hits_total"); got != hits0+1 {
		t.Errorf("v1 snapshot not restored after failed v2 write: hits = %d, want %d", got, hits0+1)
	}
}

// --- kill -9 harness -------------------------------------------------------

const (
	childStateEnv = "EMP_RECOVERY_CHILD_STATE"
	childSlowEnv  = "EMP_RECOVERY_CHILD_SLOW"
)

// TestRecoveryChildServer is not a test: it is the re-exec target for
// TestRecoveryKill9. With childStateEnv set it runs a real HTTP server on a
// loopback port (printing "ADDR host:port" on stdout) until the parent kills
// the process.
func TestRecoveryChildServer(t *testing.T) {
	dir := os.Getenv(childStateEnv)
	if dir == "" {
		t.Skip("re-exec target; run via TestRecoveryKill9")
	}
	if os.Getenv(childSlowEnv) == "1" {
		// Stretch the solve so the parent can kill mid-search: every tabu
		// epoch sleeps, spreading improvements (and checkpoints) over time.
		fault.Enable(&fault.Plan{Rules: []fault.Rule{
			{Site: "tabu.epoch", Kind: fault.KindDelay, Delay: 20 * time.Millisecond, Times: 1 << 30},
		}})
	}
	sv := New(Config{
		Registry:           obs.New(),
		Workers:            2,
		StateDir:           dir,
		CheckpointInterval: 20 * time.Millisecond,
		SnapshotInterval:   -1, // journal + checkpoints only; no periodic snapshots
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("ADDR %s\n", ln.Addr())
	os.Stdout.Sync()
	srv := &http.Server{Handler: sv.Handler()}
	_ = srv.Serve(ln) // runs until SIGKILL
}

// startRecoveryChild re-execs the test binary as a real server process on
// the given state dir and returns the process plus its base URL.
func startRecoveryChild(t *testing.T, dir string, slow bool) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestRecoveryChildServer$", "-test.v")
	cmd.Env = append(os.Environ(), childStateEnv+"="+dir)
	if slow {
		cmd.Env = append(cmd.Env, childSlowEnv+"=1")
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	addr := ""
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
			addr = a
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("child never printed its address")
	}
	// Keep draining stdout so the child never blocks on a full pipe.
	go func() {
		for sc.Scan() {
		}
	}()
	return cmd, "http://" + addr
}

// TestRecoveryKill9 is the end-to-end crash drill: a real server process is
// SIGKILLed mid-solve, restarted on the same state dir, and the journaled
// job must resume under its original id, warm-start from its checkpoint, and
// finish at least as good as the checkpointed incumbent.
func TestRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess harness; skipped in -short")
	}
	dir := t.TempDir()
	child, base := startRecoveryChild(t, dir, true)
	defer func() {
		if child.Process != nil {
			child.Process.Kill()
			child.Wait()
		}
	}()

	// Submit a deliberately slow job. The dataset is one component, so the
	// solve runs whole-graph and the epoch delay stretches the top-level tabu
	// loop (shard sub-solves would hit the same site during the construction
	// phase, before any checkpoint exists). The dataset stays small
	// (construction must finish promptly even under the race detector); the
	// per-epoch delay alone provides the kill window.
	if ds, err := census.Scaled("1k", 0.1, 7); err != nil || ds.Components() != 1 {
		t.Fatalf("scaled 1k must be one component (err %v)", err)
	}
	body := `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000","timeout_ms":240000,"options":{"seed":7,"iterations":4000,"max_no_improve":4000}}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}

	// Wait for the first checkpoint to land, then pull the plug.
	ckDir := filepath.Join(dir, "checkpoints")
	var ck durable.Checkpoint
	deadline := time.Now().Add(90 * time.Second)
	for {
		var ok bool
		ck, ok = durable.ReadCheckpoint(ckDir, st.ID, durable.Metrics{})
		if ok && ck.P > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared before the kill window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := child.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
		t.Fatal(err)
	}
	child.Wait()

	// The checkpoint may have advanced between the read and the kill; re-read
	// the surviving file — that is what the restarted server will see.
	ck, _ = durable.ReadCheckpoint(ckDir, st.ID, durable.Metrics{})

	// Restart on the same state dir, faults off. Recovery is asynchronous —
	// the job is only visible once /readyz stops answering "recovering" — so
	// wait for readiness before demanding the job back.
	child2, base2 := startRecoveryChild(t, dir, false)
	defer func() {
		child2.Process.Kill()
		child2.Wait()
	}()
	deadline = time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base2 + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted server never finished recovering")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var final JobStatus
	deadline = time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(base2 + "/v1/jobs/" + st.ID)
		if err == nil {
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("GET job after restart = %d: %s", resp.StatusCode, body)
			}
			err = json.NewDecoder(resp.Body).Decode(&final)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if final.State == "done" || final.State == "failed" || final.State == "canceled" {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed job stuck: %+v", final)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if final.State != "done" || final.Result == nil {
		t.Fatalf("resumed job = %+v, want done with a result", final)
	}
	if final.WarmFrom != "checkpoint" {
		t.Errorf("resumed warm_from = %q, want checkpoint", final.WarmFrom)
	}
	if final.Result.P < ck.P {
		t.Errorf("resumed p = %d, worse than checkpointed %d", final.Result.P, ck.P)
	}
	if final.Result.P == ck.P && final.Result.HeteroAfter > ck.H+1e-9 {
		t.Errorf("resumed H = %g, worse than checkpointed %g", final.Result.HeteroAfter, ck.H)
	}
}
