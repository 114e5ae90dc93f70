package server

import (
	"encoding/json"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"emp/internal/durable"
	"emp/internal/fault"
	"emp/internal/jobs"
)

// Durable-state wiring: everything behind Config.StateDir. The layout under
// the state directory is
//
//	jobs.journal        — append-only job lifecycle log (replayed on boot)
//	checkpoints/*.ckpt  — per-running-job incumbent checkpoints
//	cache.snapshot      — result cache + warm-seed snapshot
//
// Recovery order on boot: (1) the journal opens and replays synchronously in
// New — a torn tail truncates with a warning, never a failed boot — and is
// compacted down to still-pending jobs; (2) in the background, behind the
// `recovering` readiness state, the snapshot restores the result cache and
// warm-seed index; (3) journaled jobs re-admit under their original ids,
// warm-started from their checkpoint when one matches. Failures at every
// step degrade to "less restored state", never to a boot error.

const (
	journalFile  = "jobs.journal"
	snapshotFile = "cache.snapshot"
	ckptSubdir   = "checkpoints"
)

func (s *service) snapshotPath() string { return filepath.Join(s.stateDir, snapshotFile) }
func (s *service) ckptDir() string      { return filepath.Join(s.stateDir, ckptSubdir) }

// initDurable opens the journal and kicks off background recovery. Called at
// the tail of New; with no StateDir it only registers the (inert) metrics so
// the /v1/metrics surface is stable either way.
func (s *service) initDurable(cfg Config) {
	s.durMet = durable.Metrics{
		CorruptRecords:     s.reg.Counter("emp_durable_corrupt_records_total", "Journal/snapshot/checkpoint records dropped as torn, corrupt or stale during recovery."),
		CheckpointsWritten: s.reg.Counter("emp_durable_checkpoints_written_total", "Incumbent checkpoints persisted for running jobs."),
		SnapshotsSaved:     s.reg.Counter("emp_durable_snapshots_saved_total", "Cache snapshots persisted (periodic and on drain)."),
		RecoveredJobs:      s.reg.Counter("emp_durable_recovered_jobs_total", "Journaled jobs re-admitted after a restart."),
	}
	s.stopSnap = make(chan struct{})
	if cfg.StateDir == "" {
		return
	}
	s.stateDir = cfg.StateDir
	s.ckptInterval = cfg.CheckpointInterval
	if s.ckptInterval <= 0 {
		s.ckptInterval = DefaultCheckpointInterval
	}
	s.snapInterval = cfg.SnapshotInterval
	if s.snapInterval == 0 {
		s.snapInterval = DefaultSnapshotInterval
	}
	if err := os.MkdirAll(s.ckptDir(), 0o755); err != nil {
		log.Printf("durable: state dir unusable, running without persistence: %v", err)
		s.stateDir = ""
		return
	}
	j, replay, err := durable.Open(filepath.Join(s.stateDir, journalFile), s.durMet)
	if err != nil {
		// An unusable journal disables persistence for this run; it must not
		// stop the server from serving (empserve validates writability up
		// front, so this is a surprise — say so loudly).
		log.Printf("durable: journal unavailable, running without persistence: %v", err)
		s.stateDir = ""
		return
	}
	s.journal = j
	if replay.Corrupt > 0 {
		log.Printf("durable: dropped %d corrupt journal record(s) (%d byte torn tail truncated)",
			replay.Corrupt, replay.Truncated)
	}
	pending := durable.Pending(replay.Records)
	// Compact before anything can append: the rewritten journal carries only
	// the submit records of still-pending jobs, so it stays proportional to
	// live work. Compaction happens synchronously in New — the handler is
	// not serving yet, so no live submit can race in and be dropped.
	compacted := make([]durable.Record, 0, len(pending))
	for _, p := range pending {
		compacted = append(compacted, durable.Record{
			Kind:        durable.RecordSubmit,
			JobID:       p.JobID,
			Fingerprint: p.Fingerprint,
			DatasetKey:  p.DatasetKey,
			Dataset:     p.Dataset,
			Body:        p.Body,
		})
	}
	if err := s.journal.Rewrite(compacted); err != nil {
		log.Printf("durable: journal compaction failed (continuing with the uncompacted log): %v", err)
	}
	s.recovering.Store(true)
	go s.recoverState(pending)
	if s.snapInterval > 0 {
		go s.snapshotLoop()
	}
}

// recoverState is the background half of boot recovery: restore the cache
// snapshot, then re-admit journaled jobs. /v1/readyz answers 503
// "recovering" until it finishes.
func (s *service) recoverState(pending []durable.PendingJob) {
	defer s.recovering.Store(false)
	// Chaos hook: a delay rule here holds the recovering window open so
	// tests (and operators drilling recovery) can observe it.
	fault.Inject(durable.SiteRecover)
	s.loadSnapshot()
	for _, p := range pending {
		s.readmitJob(p)
	}
}

// readmitJob re-admits one journaled job under its original id. Every
// rejection path journals a terminal state for the id so the next boot stops
// replaying it.
func (s *service) readmitJob(p durable.PendingJob) {
	req, set, cfg, errMsg := s.parseSolveRequest(p.Body)
	if errMsg != "" {
		// The body passed validation at submit time; failing now means the
		// journal entry is damaged or predates a validation change. Either
		// way it will never run — retire it.
		log.Printf("durable: dropping journaled job %s: %s", p.JobID, errMsg)
		s.durMet.CorruptRecords.Inc()
		s.journal.Append(durable.Record{Kind: durable.RecordState, JobID: p.JobID, State: jobs.StateFailed.String()})
		durable.RemoveCheckpoint(s.ckptDir(), p.JobID)
		return
	}
	// The fingerprint is recomputed from the re-parsed request, never
	// trusted from disk — checkpoint matching below keys off it.
	fp := solveFingerprint(req, set)
	dsKey := jobDatasetKey(req)
	dsLabel := req.Named
	if dsLabel == "" {
		dsLabel = "inline"
	}
	j, err := s.jobs.SubmitRecovered(p.JobID, fp, dsKey, dsLabel)
	if err != nil {
		// A live submit beat recovery to the id or fingerprint; the live job
		// carries the work, the journaled one retires.
		log.Printf("durable: journaled job %s superseded by a live job: %v", p.JobID, err)
		s.journal.Append(durable.Record{Kind: durable.RecordState, JobID: p.JobID, State: jobs.StateCanceled.String()})
		durable.RemoveCheckpoint(s.ckptDir(), p.JobID)
		return
	}
	s.durMet.RecoveredJobs.Inc()
	// A restored result cache may already hold this fingerprint: the job is
	// done on arrival, under its original id, naming the cached answer.
	if v, ok := s.resCache.Get(fp); ok {
		resp := v.(*SolveResponse)
		s.jobs.Finish(j, fp, resp.P, resp.HeteroAfter)
		s.jobsDone.Inc()
		return
	}
	// Resume from the checkpointed incumbent when one matches this exact
	// request. A checkpoint for a different fingerprint (the id was reused,
	// or the file was tampered with) is ignored: a warm start from the wrong
	// problem is wrong, not slow.
	if ck, ok := durable.ReadCheckpoint(s.ckptDir(), p.JobID, s.durMet); ok {
		if ck.Fingerprint == fp && len(ck.Assign) > 0 {
			cfg.WarmStart = ck.Assign
			s.jobs.SetWarmFrom(j, "checkpoint")
			s.jobsWarm.Inc()
		} else {
			s.durMet.CorruptRecords.Inc()
			log.Printf("durable: ignoring checkpoint for job %s: fingerprint mismatch", p.JobID)
			durable.RemoveCheckpoint(s.ckptDir(), p.JobID)
		}
	}
	s.jobsSubmitted.Inc()
	s.jobsActive.Set(int64(s.jobs.Active()))
	s.jobsWG.Add(1)
	go s.runJob(j, req, set, cfg, fp)
}

// onJobTransition is the jobs.Store transition hook: every committed
// lifecycle change lands in the journal, and terminal states retire the
// job's checkpoint. It runs outside the store lock on whatever goroutine
// committed the transition; replay tolerates the reordering that allows.
func (s *service) onJobTransition(j *jobs.Job, st jobs.State) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(durable.Record{
		Kind:  durable.RecordState,
		JobID: j.ID(),
		State: st.String(),
	}); err != nil {
		log.Printf("durable: journal append failed for job %s: %v", j.ID(), err)
	}
	if st.Terminal() {
		durable.RemoveCheckpoint(s.ckptDir(), j.ID())
	}
}

// journalSubmit records a freshly-admitted job, body and all, so a crash
// re-admits it. The body is the canonical re-marshaled request (the decoded
// form round-trips — Dataset is raw JSON), not the client's original bytes.
func (s *service) journalSubmit(j *jobs.Job, req *SolveRequest) {
	if s.journal == nil {
		return
	}
	body, err := json.Marshal(req)
	if err == nil {
		err = s.journal.Append(durable.Record{
			Kind:        durable.RecordSubmit,
			JobID:       j.ID(),
			Fingerprint: j.Fingerprint(),
			DatasetKey:  j.DatasetKey(),
			Dataset:     j.Dataset(),
			Body:        body,
		})
	}
	if err != nil {
		log.Printf("durable: journal submit failed for job %s (job will not survive a crash): %v", j.ID(), err)
	}
}

// newCheckpointer builds the per-job checkpoint sink runJob's recorder tap
// offers incumbents to; nil without a state dir.
func (s *service) newCheckpointer(j *jobs.Job, fp string) *durable.Checkpointer {
	if s.journal == nil {
		return nil
	}
	return &durable.Checkpointer{
		Dir:         s.ckptDir(),
		JobID:       j.ID(),
		Fingerprint: fp,
		DatasetKey:  j.DatasetKey(),
		Interval:    s.ckptInterval,
		Met:         s.durMet,
	}
}

// saveSnapshot persists the result cache and warm-seed index. Each answer
// is written once, as a result entry; a warm-seed entry names its answer's
// key. A job-keyed answer is written only when a warm-seed entry names it:
// no other job record survives a restart, and no fingerprint lookup reaches
// it. Best-effort: a failure leaves the previous snapshot file intact.
func (s *service) saveSnapshot() {
	if s.stateDir == "" {
		return
	}
	data := durable.SnapshotData{WarmSeeds: s.jobs.WarmSeeds()}
	named := make(map[string]bool, len(data.WarmSeeds))
	for _, ws := range data.WarmSeeds {
		named[ws.ResultKey] = true
	}
	for _, e := range s.resCache.Entries() {
		resp, ok := e.Val.(*SolveResponse)
		if !ok || (strings.HasPrefix(e.Key, jobKeyPrefix) && !named[e.Key]) {
			continue
		}
		body, err := json.Marshal(resp)
		if err != nil {
			continue
		}
		data.Results = append(data.Results, durable.ResultEntry{Fingerprint: e.Key, Body: body})
	}
	if err := durable.WriteSnapshot(s.snapshotPath(), data); err != nil {
		log.Printf("durable: snapshot write failed (previous snapshot kept): %v", err)
		return
	}
	s.durMet.SnapshotsSaved.Inc()
}

// loadSnapshot restores the result cache and warm-seed index from the last
// snapshot. Entry costs are re-accounted from the decoded response — sizes
// from disk are not trusted — and undecodable entries are skipped and
// counted, never served.
func (s *service) loadSnapshot() {
	data := durable.ReadSnapshot(s.snapshotPath(), s.durMet)
	restored := 0
	for _, e := range data.Results {
		resp := new(SolveResponse)
		if err := json.Unmarshal(e.Body, resp); err != nil || resp.P <= 0 || len(resp.Assignment) == 0 {
			s.durMet.CorruptRecords.Inc()
			continue
		}
		s.resCache.Add(e.Fingerprint, resp, responseCost(resp))
		restored++
	}
	seeds := 0
	for _, ws := range data.WarmSeeds {
		if s.jobs.RestoreWarmSeed(ws) {
			seeds++
		}
	}
	if restored > 0 || seeds > 0 {
		log.Printf("durable: restored %d cached result(s) and %d warm seed(s) from snapshot", restored, seeds)
	}
}

// snapshotLoop writes best-effort periodic snapshots until Close.
func (s *service) snapshotLoop() {
	t := time.NewTicker(s.snapInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopSnap:
			return
		case <-t.C:
			s.saveSnapshot()
		}
	}
}

// closeDurable is Service.Close: final snapshot, then release everything.
func (s *service) closeDurable() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.stopSnap)
		s.jobs.Close()
		s.saveSnapshot()
		if s.journal != nil {
			err = s.journal.Close()
		}
	})
	return err
}
