package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Snapshot file layout: frame 0 is a snapshotHeader, every following frame
// is one snapshotEntry. Each frame carries its own CRC32C, so a partially
// corrupted snapshot degrades to "fewer restored entries", never a failed
// boot; a header written under a different FormatVersion invalidates the
// whole file (the entries are keyed by fingerprints whose scheme may have
// changed).

type snapshotHeader struct {
	Format string `json:"format"`
	UnixMs int64  `json:"unix_ms"`
}

type snapshotEntry struct {
	Kind     string         `json:"kind"` // "result" | "warmseed"
	Result   *ResultEntry   `json:"result,omitempty"`
	WarmSeed *WarmSeedEntry `json:"warm_seed,omitempty"`
}

// ResultEntry is one result-store entry: its key and the marshaled solve
// response. The key is the canonical request fingerprint, or "job/<id>" for
// a warm-started job's answer that a WarmSeedEntry names. The restoring
// server re-decodes Body and re-accounts its cost — nothing from disk is
// trusted for sizing.
type ResultEntry struct {
	Fingerprint string          `json:"fingerprint"`
	Body        json.RawMessage `json:"body"`
}

// WarmSeedEntry is one warm-start seed: the newest done job on a dataset
// key, restored after a restart to warm resubmits exactly like the
// in-memory seed it mirrors. It names the job's answer by its result-entry
// key, so the snapshot holds each assignment once; Dataset is the job's
// display label and (P, H) its answer's.
type WarmSeedEntry struct {
	DatasetKey  string  `json:"dataset_key"`
	Dataset     string  `json:"dataset"`
	JobID       string  `json:"job_id"`
	Fingerprint string  `json:"fingerprint"`
	ResultKey   string  `json:"result_key"`
	P           int     `json:"p"`
	H           float64 `json:"h"`
}

// SnapshotData is everything a snapshot carries.
type SnapshotData struct {
	Results   []ResultEntry
	WarmSeeds []WarmSeedEntry
}

// WriteSnapshot persists data atomically to path. A crash or injected
// failure mid-write leaves the previous snapshot file intact.
func WriteSnapshot(path string, data SnapshotData) error {
	hdr, err := json.Marshal(snapshotHeader{Format: FormatVersion, UnixMs: time.Now().UnixMilli()})
	if err != nil {
		return fmt.Errorf("durable: marshaling snapshot header: %w", err)
	}
	buf := appendFrame(nil, hdr)
	add := func(e snapshotEntry) error {
		p, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("durable: marshaling snapshot entry: %w", err)
		}
		buf = appendFrame(buf, p)
		return nil
	}
	for i := range data.Results {
		if err := add(snapshotEntry{Kind: "result", Result: &data.Results[i]}); err != nil {
			return err
		}
	}
	for i := range data.WarmSeeds {
		if err := add(snapshotEntry{Kind: "warmseed", WarmSeed: &data.WarmSeeds[i]}); err != nil {
			return err
		}
	}
	return writeFileAtomic(SiteSnapshotWrite, path, buf)
}

// ReadSnapshot loads the snapshot at path. Corruption never errors: a bad
// frame drops itself and everything after it (the framing downstream of a
// bad length cannot be trusted), a bad header or stale FormatVersion drops
// the whole file, and every drop is counted on met.CorruptRecords. A missing
// file is a silent cold start.
func ReadSnapshot(path string, met Metrics) SnapshotData {
	raw, err := os.ReadFile(path)
	if err != nil {
		return SnapshotData{}
	}
	frames, _, corrupt := readFrames(raw)
	if corrupt > 0 {
		met.CorruptRecords.Add(int64(corrupt))
	}
	if len(frames) == 0 {
		return SnapshotData{}
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(frames[0], &hdr); err != nil || hdr.Format != FormatVersion {
		// Whole file is stale or garbage; count every entry it claimed.
		met.CorruptRecords.Add(int64(len(frames)))
		return SnapshotData{}
	}
	var out SnapshotData
	for _, p := range frames[1:] {
		var e snapshotEntry
		if err := json.Unmarshal(p, &e); err != nil {
			met.CorruptRecords.Inc()
			continue
		}
		switch {
		case e.Kind == "result" && e.Result != nil && e.Result.Fingerprint != "" && len(e.Result.Body) > 0:
			out.Results = append(out.Results, *e.Result)
		case e.Kind == "warmseed" && e.WarmSeed != nil && e.WarmSeed.DatasetKey != "" && e.WarmSeed.ResultKey != "":
			out.WarmSeeds = append(out.WarmSeeds, *e.WarmSeed)
		default:
			met.CorruptRecords.Inc()
		}
	}
	return out
}
