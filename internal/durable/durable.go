// Package durable is the crash-safe persistence layer behind `empserve
// -state-dir`: everything the server has earned in memory — queued and
// running async jobs, the incumbent of a long solve, finished results and
// warm-start seeds — survives a hard kill and is rebuilt on the next boot.
//
// Three artifacts live under the state directory:
//
//   - jobs.journal — an append-only log of job lifecycle records (submit,
//     state transitions), each length-prefixed and CRC32C-checksummed.
//     Replay on boot re-admits every job that never reached a terminal
//     state. A torn or corrupt tail (the crash interrupted a write) is
//     truncated with a warning, never a boot failure.
//   - checkpoints/<job-id>.ckpt — the latest incumbent of a running job
//     (assignment + p/H + moves), rewritten via temp-file + atomic rename
//     and throttled by interval and improvement. A recovered job
//     warm-starts from it instead of solving from scratch.
//   - cache.snapshot — the result cache and warm-start seeds, written on
//     drain and periodically best-effort, restored on boot with per-entry
//     checksums and a format-version fingerprint so stale or corrupt
//     entries are skipped, never trusted.
//
// Durability policy: journal appends fsync before returning (job admission
// is promised to the client); checkpoint and snapshot files fsync their
// temp file before the rename, so a crash leaves either the previous
// complete file or the new complete file, never a torn one. See
// docs/ROBUSTNESS.md ("Durability & crash recovery").
package durable

import (
	"fmt"
	"os"
	"path/filepath"

	"emp/internal/fault"
	"emp/internal/obs"
)

// Fault-injection sites compiled into the durable layer (see
// docs/ROBUSTNESS.md for the full site list):
//
//	durable.journal.append — fails a journal append before any bytes land
//	durable.journal.torn   — writes half a journal frame then fails,
//	                         simulating a crash mid-append
//	durable.checkpoint.write — fails a checkpoint write (previous kept)
//	durable.snapshot.write   — fails a snapshot write (previous kept)
//	durable.recover          — hit once at the start of boot recovery
//	                         (delay rules make the recovering window
//	                         observable to tests)
const (
	SiteJournalAppend   = "durable.journal.append"
	SiteJournalTorn     = "durable.journal.torn"
	SiteCheckpointWrite = "durable.checkpoint.write"
	SiteSnapshotWrite   = "durable.snapshot.write"
	SiteRecover         = "durable.recover"
)

// FormatVersion stamps every snapshot and checkpoint. Restore skips files
// written under a different version wholesale: the entries are keyed by
// request fingerprints and carry solver-shaped payloads, both of which may
// change shape between versions, and a stale entry served as fresh is worse
// than a cold cache. Bump it whenever the fingerprint scheme, the response
// schema or the on-disk framing changes.
const FormatVersion = "emp-durable-1"

// Metrics carries the registry hooks of the durable layer. All fields may be
// nil (obs types are nil-receiver safe), so the package works unwired.
type Metrics struct {
	// CorruptRecords counts journal/snapshot/checkpoint records dropped for
	// failing their checksum or framing (emp_durable_corrupt_records_total).
	CorruptRecords *obs.Counter
	// CheckpointsWritten counts incumbent checkpoints persisted.
	CheckpointsWritten *obs.Counter
	// SnapshotsSaved counts cache snapshots persisted.
	SnapshotsSaved *obs.Counter
	// RecoveredJobs counts jobs re-admitted from the journal on boot.
	RecoveredJobs *obs.Counter
}

// writeFileAtomic writes data to path via a same-directory temp file, fsyncs
// it and renames it into place, so readers (and the next boot) observe either
// the previous complete file or the new complete file. site is the fault
// injection point; a failed or injected write leaves the previous file
// untouched and removes the temp.
func writeFileAtomic(site, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: creating temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := fault.Inject(site); err != nil {
		return fail(fmt.Errorf("durable: writing %s: %w", path, err))
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(fmt.Errorf("durable: writing %s: %w", path, err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("durable: syncing %s: %w", path, err))
	}
	if err := tmp.Close(); err != nil {
		return fail(fmt.Errorf("durable: closing %s: %w", path, err))
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("durable: renaming %s into place: %w", path, err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a rename survives power loss. Best-effort:
// some filesystems refuse directory syncs, and the rename is already durable
// on the ones that matter.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
