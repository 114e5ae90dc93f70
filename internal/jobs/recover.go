package jobs

import (
	"errors"

	"emp/internal/durable"
)

// Recovery-facing store APIs: re-admitting journaled jobs under their
// original ids after a crash, and exporting/importing the warm-seed index
// as the snapshot's own durable.WarmSeedEntry records. The durable layer
// (via internal/server) is the only caller; normal traffic uses
// Submit/SubmitDone.

// ErrJobExists rejects a recovered re-admission whose id or fingerprint is
// already live — a client resubmitted the same request before recovery got
// to the journaled copy. The recovery path journals the old id as canceled
// and lets the live job carry the work.
var ErrJobExists = errors.New("jobs: job already exists")

// SubmitRecovered re-admits a journaled job under its original id, so
// clients polling a pre-crash job id find their job again. Recovered jobs
// bypass MaxActive — they were admitted before the crash, and re-admission
// must not fail because restart traffic raced them in.
func (s *Store) SubmitRecovered(id, fingerprint, datasetKey, dataset string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byID[id] != nil {
		return nil, ErrJobExists
	}
	if _, ok := s.byFP[fingerprint]; ok {
		return nil, ErrJobExists
	}
	j := s.addJobLocked(id, fingerprint, datasetKey, dataset)
	j.state = StateQueued
	s.byFP[fingerprint] = j
	s.active++
	return j, nil
}

// WarmSeeds exports the warm-seed index for snapshotting: per dataset key,
// the newest done job's id, dataset label and answer key, plus the (p, H)
// of its sealed terminal event. The answer itself is the result store's to
// persist.
func (s *Store) WarmSeeds() []durable.WarmSeedEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]durable.WarmSeedEntry, 0, len(s.warmByKey))
	for key, j := range s.warmByKey {
		out = append(out, durable.WarmSeedEntry{
			DatasetKey:  key,
			Dataset:     j.dataset,
			JobID:       j.id,
			Fingerprint: j.fingerprint,
			ResultKey:   j.resultKey,
			P:           j.final.P,
			H:           j.final.H,
		})
	}
	return out
}

// RestoreWarmSeed re-seeds the warm-start index from a snapshot entry: a
// done job under the original id (so warm_from attribution and its status
// stay stable across restarts) naming its answer's key, with its label and
// (p, H). First writer wins — a live job that already took the id or
// produced a fresher seed for the key is never displaced.
func (s *Store) RestoreWarmSeed(e durable.WarmSeedEntry) bool {
	if e.ResultKey == "" || e.DatasetKey == "" {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byID[e.JobID] != nil || s.warmByKey[e.DatasetKey] != nil {
		return false
	}
	j := s.addJobLocked(e.JobID, e.Fingerprint, e.DatasetKey, e.Dataset)
	s.retireBornDoneLocked(j, e.ResultKey, e.P, e.H)
	return true
}

// DatasetKey returns the warm-start grouping key the job was submitted under.
func (j *Job) DatasetKey() string { return j.datasetKey }
