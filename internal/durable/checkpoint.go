package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Checkpoint is the persisted incumbent of a running job: enough to seed
// fact.Config.WarmStart on resume (Assign) plus the p/H/moves the incumbent
// had earned, which the recovery test and bench use as the floor a resumed
// solve must never fall below.
type Checkpoint struct {
	Format      string  `json:"format"`
	JobID       string  `json:"job_id"`
	Fingerprint string  `json:"fingerprint"`
	DatasetKey  string  `json:"dataset_key,omitempty"`
	P           int     `json:"p"`
	H           float64 `json:"h"`
	Moves       int     `json:"moves"`
	Assign      []int   `json:"assign"`
	UnixMs      int64   `json:"unix_ms"`
}

// CheckpointPath names the checkpoint file of a job under dir. Job ids are
// server-issued ("job-<n>"), so they are safe as file names.
func CheckpointPath(dir, jobID string) string {
	return filepath.Join(dir, jobID+".ckpt")
}

// WriteCheckpoint persists ck atomically (temp file + fsync + rename): a
// crash mid-write leaves the previous checkpoint intact.
func WriteCheckpoint(dir string, ck Checkpoint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("durable: creating checkpoint dir: %w", err)
	}
	ck.Format = FormatVersion
	if ck.UnixMs == 0 {
		ck.UnixMs = time.Now().UnixMilli()
	}
	payload, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("durable: marshaling checkpoint: %w", err)
	}
	return writeFileAtomic(SiteCheckpointWrite, CheckpointPath(dir, ck.JobID), appendFrame(nil, payload))
}

// ReadCheckpoint loads a job's checkpoint. It returns ok=false — counting
// corruption on met, never erroring — when the file is absent, torn, fails
// its checksum, decodes badly, or was written under a different
// FormatVersion. Callers must still verify Fingerprint against the job they
// are resuming: a checkpoint from a different request must be ignored.
func ReadCheckpoint(dir, jobID string, met Metrics) (Checkpoint, bool) {
	data, err := os.ReadFile(CheckpointPath(dir, jobID))
	if err != nil {
		return Checkpoint{}, false
	}
	frames, _, corrupt := readFrames(data)
	if corrupt > 0 || len(frames) == 0 {
		met.CorruptRecords.Inc()
		return Checkpoint{}, false
	}
	var ck Checkpoint
	if err := json.Unmarshal(frames[0], &ck); err != nil {
		met.CorruptRecords.Inc()
		return Checkpoint{}, false
	}
	if ck.Format != FormatVersion {
		return Checkpoint{}, false
	}
	return ck, true
}

// RemoveCheckpoint deletes a job's checkpoint once the job is terminal.
func RemoveCheckpoint(dir, jobID string) {
	os.Remove(CheckpointPath(dir, jobID))
}

// Checkpointer turns a stream of incumbent offers (the flight recorder's
// samples that carry an assignment builder) into throttled checkpoint
// writes. Only whole-problem incumbents arrive: shard sub-solves record
// nothing. Writes happen on the offering goroutine — the solver's — so the
// throttle is what keeps persistence off the hot path: an offer inside the
// interval, or one that does not improve on the last write, costs two
// comparisons and never builds the O(n) assignment.
type Checkpointer struct {
	Dir         string
	JobID       string
	Fingerprint string
	DatasetKey  string
	// Interval is the minimum time between writes (except the first, which
	// always writes: a job with any checkpoint at all resumes much better
	// than one with none). After it, any gain in p, or in H at equal p,
	// qualifies.
	Interval time.Duration
	Met      Metrics
	// Now is stubbed by tests.
	Now func() time.Time

	mu        sync.Mutex
	lastWrite time.Time
	wrote     bool
	lastP     int
	lastH     float64
}

// Offer considers persisting a new incumbent. assign builds its assignment
// and is called at most once, only when the throttle admits a write; the
// slice it returns is not retained past the call. Errors are swallowed after
// counting: checkpointing is an optimization for the next boot, never a
// reason to fail this solve.
func (c *Checkpointer) Offer(p int, h float64, moves int, assign func() []int) {
	if c == nil {
		return
	}
	now := time.Now
	if c.Now != nil {
		now = c.Now
	}
	c.mu.Lock()
	if c.wrote {
		better := p > c.lastP || (p == c.lastP && h < c.lastH)
		if !better || now().Sub(c.lastWrite) < c.Interval {
			c.mu.Unlock()
			return
		}
	}
	// Commit the throttle state before the write: a failed write inside the
	// interval should not be retried on every subsequent offer.
	c.wrote = true
	c.lastP, c.lastH, c.lastWrite = p, h, now()
	c.mu.Unlock()

	ck := Checkpoint{
		JobID:       c.JobID,
		Fingerprint: c.Fingerprint,
		DatasetKey:  c.DatasetKey,
		P:           p,
		H:           h,
		Moves:       moves,
		Assign:      assign(),
	}
	if WriteCheckpoint(c.Dir, ck) == nil {
		c.Met.CheckpointsWritten.Inc()
	}
}
