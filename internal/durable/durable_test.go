package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"emp/internal/fault"
	"emp/internal/obs"
)

func testMetrics(reg *obs.Registry) Metrics {
	reg.SetEnabled(true)
	return Metrics{
		CorruptRecords:     reg.Counter("emp_durable_corrupt_records_total", "t"),
		CheckpointsWritten: reg.Counter("emp_durable_checkpoints_written_total", "t"),
		SnapshotsSaved:     reg.Counter("emp_durable_snapshots_saved_total", "t"),
		RecoveredJobs:      reg.Counter("emp_durable_recovered_jobs_total", "t"),
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte("alpha"), []byte(""), []byte(`{"k":"v"}`), make([]byte, 4096)}
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	frames, good, corrupt := readFrames(buf)
	if corrupt != 0 || good != int64(len(buf)) {
		t.Fatalf("clean buffer reported corrupt=%d good=%d len=%d", corrupt, good, len(buf))
	}
	if len(frames) != len(payloads) {
		t.Fatalf("got %d frames, want %d", len(frames), len(payloads))
	}
	for i, p := range payloads {
		if string(frames[i]) != string(p) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

func TestFrameTornAndCorruptTails(t *testing.T) {
	base := appendFrame(appendFrame(nil, []byte("one")), []byte("two"))
	cases := []struct {
		name string
		data []byte
		want int // surviving frames
	}{
		{"torn header", base[:len(base)-len("two")-frameHeader+3], 1},
		{"torn payload", base[:len(base)-1], 1},
		{"flipped payload byte", flip(base, len(base)-1), 1},
		{"flipped length byte", flip(base, 0), 0},
		{"garbage length", append(appendFrame(nil, []byte("one")), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0), 1},
	}
	for _, tc := range cases {
		frames, good, corrupt := readFrames(tc.data)
		if len(frames) != tc.want {
			t.Errorf("%s: got %d frames, want %d", tc.name, len(frames), tc.want)
		}
		if corrupt != 1 {
			t.Errorf("%s: corrupt=%d, want 1", tc.name, corrupt)
		}
		if good >= int64(len(tc.data)) {
			t.Errorf("%s: good=%d should be before the bad tail (len %d)", tc.name, good, len(tc.data))
		}
	}
}

func flip(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x55
	return out
}

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, rep, err := Open(path, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 0 || rep.Corrupt != 0 {
		t.Fatalf("fresh journal replayed %+v", rep)
	}
	recs := []Record{
		{Kind: RecordSubmit, JobID: "job-1", Fingerprint: "fp1", DatasetKey: "dk", Dataset: "grid", Body: json.RawMessage(`{"a":1}`)},
		{Kind: RecordState, JobID: "job-1", State: "running"},
		{Kind: RecordSubmit, JobID: "job-2", Fingerprint: "fp2", Body: json.RawMessage(`{"b":2}`)},
		{Kind: RecordState, JobID: "job-1", State: "done"},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rep2, err := Open(path, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(rep2.Records) != len(recs) || rep2.Corrupt != 0 {
		t.Fatalf("replayed %d records (corrupt %d), want %d", len(rep2.Records), rep2.Corrupt, len(recs))
	}
	for i, r := range rep2.Records {
		if r.Kind != recs[i].Kind || r.JobID != recs[i].JobID || r.State != recs[i].State {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, r, recs[i])
		}
		if r.UnixMs == 0 {
			t.Fatalf("record %d missing timestamp", i)
		}
	}

	pending := Pending(rep2.Records)
	if len(pending) != 1 || pending[0].JobID != "job-2" {
		t.Fatalf("pending = %+v, want only job-2", pending)
	}
	if pending[0].WasRunning {
		t.Fatalf("job-2 never ran")
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _, err := Open(path, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: RecordSubmit, JobID: "job-1", Body: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate a crash mid-append: half a frame lands after the good record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 0, 0, 0, 1, 2})
	f.Close()
	pre, _ := os.Stat(path)

	reg := obs.New()
	met := testMetrics(reg)
	j2, rep, err := Open(path, met)
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	if len(rep.Records) != 1 || rep.Corrupt != 1 || rep.Truncated != 6 {
		t.Fatalf("replay = %+v, want 1 record, 1 corrupt, 6 truncated", rep)
	}
	if got := met.CorruptRecords.Value(); got != 1 {
		t.Fatalf("corrupt counter = %d, want 1", got)
	}
	post, _ := os.Stat(path)
	if post.Size() != pre.Size()-6 {
		t.Fatalf("journal not truncated: %d -> %d", pre.Size(), post.Size())
	}
	// The journal must be appendable and framed correctly after truncation.
	if err := j2.Append(Record{Kind: RecordState, JobID: "job-1", State: "running"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, rep3, err := Open(path, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.Records) != 2 || rep3.Corrupt != 0 {
		t.Fatalf("post-truncation replay = %+v, want 2 clean records", rep3)
	}
}

func TestJournalTornInjectionThenRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _, err := Open(path, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: RecordSubmit, JobID: "job-1", Body: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	fault.Enable(&fault.Plan{Rules: []fault.Rule{{Site: SiteJournalTorn}}})
	err = j.Append(Record{Kind: RecordState, JobID: "job-1", State: "running"})
	fault.Enable(nil)
	if err == nil {
		t.Fatal("injected torn append should error")
	}
	j.Close()

	reg := obs.New()
	met := testMetrics(reg)
	_, rep, err := Open(path, met)
	if err != nil {
		t.Fatalf("boot after torn write failed: %v", err)
	}
	if len(rep.Records) != 1 || rep.Corrupt != 1 || rep.Truncated == 0 {
		t.Fatalf("replay = %+v, want the submit record plus a truncated tail", rep)
	}
}

func TestJournalRewriteCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _, err := Open(path, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		j.Append(Record{Kind: RecordState, JobID: "job-old", State: "done"})
	}
	keep := []Record{{Kind: RecordSubmit, JobID: "job-live", Body: json.RawMessage(`{}`), UnixMs: 1}}
	if err := j.Rewrite(keep); err != nil {
		t.Fatal(err)
	}
	// Appends after a rewrite must land in the new file.
	if err := j.Append(Record{Kind: RecordState, JobID: "job-live", State: "running"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, rep, err := Open(path, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 2 || rep.Records[0].JobID != "job-live" || rep.Records[1].State != "running" {
		t.Fatalf("compacted replay = %+v", rep.Records)
	}
}

func TestPendingTerminalWinsOutOfOrder(t *testing.T) {
	recs := []Record{
		{Kind: RecordSubmit, JobID: "a", Body: json.RawMessage(`{}`)},
		{Kind: RecordSubmit, JobID: "b", Body: json.RawMessage(`{}`)},
		// Terminal lands before running: the journal hook fires outside the
		// store lock, so this ordering is legal.
		{Kind: RecordState, JobID: "a", State: "done"},
		{Kind: RecordState, JobID: "a", State: "running"},
		{Kind: RecordState, JobID: "b", State: "running"},
		// State for an unknown job is ignored.
		{Kind: RecordState, JobID: "ghost", State: "running"},
	}
	pending := Pending(recs)
	if len(pending) != 1 || pending[0].JobID != "b" || !pending[0].WasRunning {
		t.Fatalf("pending = %+v, want running job b only", pending)
	}
}

func TestPendingPreservesSubmitOrder(t *testing.T) {
	var recs []Record
	ids := []string{"j5", "j1", "j9", "j3"}
	for _, id := range ids {
		recs = append(recs, Record{Kind: RecordSubmit, JobID: id, Body: json.RawMessage(`{}`)})
	}
	pending := Pending(recs)
	if len(pending) != len(ids) {
		t.Fatalf("got %d pending", len(pending))
	}
	for i, id := range ids {
		if pending[i].JobID != id {
			t.Fatalf("pending order %v, want %v", pending, ids)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ck := Checkpoint{JobID: "job-7", Fingerprint: "fp", DatasetKey: "dk", P: 12, H: 34.5, Moves: 678, Assign: []int{0, 1, 1, -1, 2}}
	if err := WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	got, ok := ReadCheckpoint(dir, "job-7", Metrics{})
	if !ok {
		t.Fatal("checkpoint not readable")
	}
	if got.P != 12 || got.H != 34.5 || got.Moves != 678 || got.Fingerprint != "fp" || len(got.Assign) != 5 || got.Assign[3] != -1 {
		t.Fatalf("checkpoint round trip mismatch: %+v", got)
	}
	if got.Format != FormatVersion || got.UnixMs == 0 {
		t.Fatalf("missing format/timestamp: %+v", got)
	}
	if _, ok := ReadCheckpoint(dir, "job-8", Metrics{}); ok {
		t.Fatal("absent checkpoint read ok")
	}
	RemoveCheckpoint(dir, "job-7")
	if _, ok := ReadCheckpoint(dir, "job-7", Metrics{}); ok {
		t.Fatal("removed checkpoint read ok")
	}
}

func TestCheckpointCorruptAndStale(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, Checkpoint{JobID: "j", Fingerprint: "fp", P: 1, Assign: []int{0}}); err != nil {
		t.Fatal(err)
	}
	path := CheckpointPath(dir, "j")
	data, _ := os.ReadFile(path)
	os.WriteFile(path, flip(data, len(data)-1), 0o644)
	reg := obs.New()
	met := testMetrics(reg)
	if _, ok := ReadCheckpoint(dir, "j", met); ok {
		t.Fatal("corrupt checkpoint read ok")
	}
	if met.CorruptRecords.Value() != 1 {
		t.Fatalf("corrupt counter = %d", met.CorruptRecords.Value())
	}

	// A checkpoint from a different format version is stale, not corrupt.
	stale, _ := json.Marshal(Checkpoint{Format: "emp-durable-0", JobID: "j", P: 1, Assign: []int{0}})
	os.WriteFile(path, appendFrame(nil, stale), 0o644)
	if _, ok := ReadCheckpoint(dir, "j", met); ok {
		t.Fatal("stale-format checkpoint read ok")
	}
}

func TestCheckpointerThrottle(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	met := testMetrics(reg)
	now := time.Unix(1000, 0)
	c := &Checkpointer{
		Dir: dir, JobID: "job-1", Fingerprint: "fp", DatasetKey: "dk",
		Interval: time.Second, MinImprove: 0.01, Met: met,
		Now: func() time.Time { return now },
	}
	// builds counts assignment materializations: only admitted offers may
	// build one.
	builds := 0
	assign := func(a ...int) func() []int {
		return func() []int { builds++; return a }
	}
	// First offer always writes.
	c.Offer(5, 100, 10, assign(0, 0, 1))
	if met.CheckpointsWritten.Value() != 1 || builds != 1 {
		t.Fatalf("first offer not written (writes %d, builds %d)", met.CheckpointsWritten.Value(), builds)
	}
	// Better but inside the interval: throttled.
	c.Offer(6, 90, 20, assign(0, 1, 1))
	if met.CheckpointsWritten.Value() != 1 {
		t.Fatalf("interval throttle failed")
	}
	// Interval elapsed, p improved: written.
	now = now.Add(2 * time.Second)
	c.Offer(6, 90, 20, assign(0, 1, 1))
	if met.CheckpointsWritten.Value() != 2 {
		t.Fatalf("improved offer after interval not written")
	}
	// Interval elapsed but H moved less than MinImprove (1% of 90): skipped.
	now = now.Add(2 * time.Second)
	c.Offer(6, 89.5, 30, assign(0, 1, 1))
	if met.CheckpointsWritten.Value() != 2 {
		t.Fatalf("sub-threshold improvement written")
	}
	if builds != 2 {
		t.Fatalf("%d assignments built for 2 writes: declined offers must not build", builds)
	}
	// Real improvement after the interval: written, and the file holds it.
	c.Offer(6, 80, 40, assign(1, 1, 0))
	if met.CheckpointsWritten.Value() != 3 {
		t.Fatalf("improvement after interval not written")
	}
	ck, ok := ReadCheckpoint(dir, "job-1", Metrics{})
	if !ok || ck.P != 6 || ck.H != 80 || ck.Moves != 40 || fmt.Sprint(ck.Assign) != "[1 1 0]" {
		t.Fatalf("final checkpoint = %+v", ck)
	}
	// The write completes inside Offer; mutating the offered slice afterwards
	// must not corrupt what was written.
	seed := []int{0, 1, 2}
	now = now.Add(2 * time.Second)
	c.Offer(7, 70, 50, func() []int { return seed })
	seed[0] = 99
	ck, _ = ReadCheckpoint(dir, "job-1", Metrics{})
	if ck.Assign[0] != 0 {
		t.Fatalf("checkpoint aliases the offered slice: %+v", ck.Assign)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snapshot")
	data := SnapshotData{
		Results: []ResultEntry{
			{Fingerprint: "fp1", Body: json.RawMessage(`{"p":3}`)},
			{Fingerprint: "fp2", Body: json.RawMessage(`{"p":4}`)},
		},
		WarmSeeds: []WarmSeedEntry{
			{DatasetKey: "dk1", JobID: "job-1", Fingerprint: "fp1", Seed: []int{0, 1, -1}, P: 3, H: 1.5},
		},
	}
	if err := WriteSnapshot(path, data); err != nil {
		t.Fatal(err)
	}
	got := ReadSnapshot(path, Metrics{})
	if len(got.Results) != 2 || len(got.WarmSeeds) != 1 {
		t.Fatalf("restored %d results, %d seeds", len(got.Results), len(got.WarmSeeds))
	}
	if got.Results[1].Fingerprint != "fp2" || string(got.Results[1].Body) != `{"p":4}` {
		t.Fatalf("result mismatch: %+v", got.Results[1])
	}
	ws := got.WarmSeeds[0]
	if ws.DatasetKey != "dk1" || ws.P != 3 || ws.H != 1.5 || len(ws.Seed) != 3 || ws.Seed[2] != -1 {
		t.Fatalf("warm seed mismatch: %+v", ws)
	}
	if got := ReadSnapshot(filepath.Join(t.TempDir(), "absent"), Metrics{}); len(got.Results)+len(got.WarmSeeds) != 0 {
		t.Fatal("absent snapshot restored entries")
	}
}

func TestSnapshotCorruptChecksumSkipsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snapshot")
	data := SnapshotData{Results: []ResultEntry{
		{Fingerprint: "fp1", Body: json.RawMessage(`{"p":3}`)},
		{Fingerprint: "fp2", Body: json.RawMessage(`{"p":4}`)},
	}}
	if err := WriteSnapshot(path, data); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, flip(raw, len(raw)-1), 0o644)
	reg := obs.New()
	met := testMetrics(reg)
	got := ReadSnapshot(path, met)
	if len(got.Results) != 1 || got.Results[0].Fingerprint != "fp1" {
		t.Fatalf("restored %+v, want only fp1 to survive", got.Results)
	}
	if met.CorruptRecords.Value() == 0 {
		t.Fatal("corruption not counted")
	}
}

func TestSnapshotVersionMismatchDropsAll(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snapshot")
	hdr, _ := json.Marshal(snapshotHeader{Format: "emp-durable-0", UnixMs: 1})
	entry, _ := json.Marshal(snapshotEntry{Kind: "result", Result: &ResultEntry{Fingerprint: "fp", Body: json.RawMessage(`{}`)}})
	os.WriteFile(path, appendFrame(appendFrame(nil, hdr), entry), 0o644)
	reg := obs.New()
	met := testMetrics(reg)
	got := ReadSnapshot(path, met)
	if len(got.Results) != 0 {
		t.Fatalf("stale-version snapshot restored %+v", got.Results)
	}
	if met.CorruptRecords.Value() == 0 {
		t.Fatal("stale snapshot not counted as dropped")
	}
}

func TestSnapshotFailedWriteKeepsPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snapshot")
	if err := WriteSnapshot(path, SnapshotData{Results: []ResultEntry{{Fingerprint: "old", Body: json.RawMessage(`{}`)}}}); err != nil {
		t.Fatal(err)
	}
	fault.Enable(&fault.Plan{Rules: []fault.Rule{{Site: SiteSnapshotWrite}}})
	err := WriteSnapshot(path, SnapshotData{Results: []ResultEntry{{Fingerprint: "new", Body: json.RawMessage(`{}`)}}})
	fault.Enable(nil)
	if err == nil {
		t.Fatal("injected snapshot write should error")
	}
	got := ReadSnapshot(path, Metrics{})
	if len(got.Results) != 1 || got.Results[0].Fingerprint != "old" {
		t.Fatalf("previous snapshot lost: %+v", got.Results)
	}
	// No temp litter either.
	entries, _ := os.ReadDir(filepath.Dir(path))
	if len(entries) != 1 {
		t.Fatalf("stray files after failed write: %v", entries)
	}
}
