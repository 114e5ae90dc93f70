package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"emp/internal/obs"
)

// FuzzJournalReplay writes arbitrary bytes as a journal and opens it. Open
// must not fail or panic. It must truncate the file to exactly its good
// prefix: re-framing the good payloads reproduces that prefix, and the
// frame after it, if any, is torn or corrupt. A second Open finds nothing to
// truncate and replays the same records, and Pending folds them without
// panicking.
func FuzzJournalReplay(f *testing.F) {
	// TestFrameTornAndCorruptTails's corruption table.
	base := appendFrame(appendFrame(nil, []byte("one")), []byte("two"))
	f.Add(base)
	f.Add(base[:len(base)-len("two")-frameHeader+3])
	f.Add(base[:len(base)-1])
	f.Add(flip(base, len(base)-1))
	f.Add(flip(base, 0))
	f.Add(append(appendFrame(nil, []byte("one")), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0))
	// TestJournalTornTailTruncated's journal: one record, then a torn frame.
	var journal []byte
	for _, rec := range []Record{
		{Kind: RecordSubmit, JobID: "job-1", Body: json.RawMessage(`{}`)},
		{Kind: RecordState, JobID: "job-1", State: "running"},
		{Kind: RecordSubmit, JobID: "job-2", Fingerprint: "fp2", Body: json.RawMessage(`{"b":2}`)},
		{Kind: RecordState, JobID: "job-1", State: "done"},
	} {
		payload, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		journal = appendFrame(journal, payload)
		f.Add(append(bytes.Clone(journal), 9, 0, 0, 0, 1, 2))
	}
	f.Add(journal)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		path := filepath.Join(t.TempDir(), "jobs.journal")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		met := testMetrics(obs.New())
		j, rep, err := Open(path, met)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(in, kept) || rep.Truncated != int64(len(in)-len(kept)) {
			t.Fatalf("kept %d of %d bytes with Truncated=%d; want a prefix and the rest counted",
				len(kept), len(in), rep.Truncated)
		}

		frames, good, _ := readFrames(in)
		var reframed []byte
		var want []Record
		undecodable := 0
		for _, p := range frames {
			reframed = appendFrame(reframed, p)
			var rec Record
			if json.Unmarshal(p, &rec) != nil {
				undecodable++
				continue
			}
			want = append(want, rec)
		}
		if !bytes.Equal(reframed, kept) || good != int64(len(kept)) {
			t.Fatalf("re-framed good payloads (%d bytes) differ from the kept prefix (%d bytes)", len(reframed), len(kept))
		}
		prefix := 0
		for {
			size, ok := goodFrame(in[prefix:])
			if !ok {
				break
			}
			prefix += size
		}
		if prefix != len(kept) {
			t.Fatalf("file keeps %d bytes, but its good frames end at %d", len(kept), prefix)
		}
		torn := 0
		if rep.Truncated > 0 {
			torn = 1
		}
		if rep.Corrupt != torn+undecodable || met.CorruptRecords.Value() != int64(rep.Corrupt) {
			t.Fatalf("Corrupt=%d (counter %d), want %d torn + %d undecodable",
				rep.Corrupt, met.CorruptRecords.Value(), torn, undecodable)
		}
		if !reflect.DeepEqual(rep.Records, want) {
			t.Fatalf("replayed %+v, want %+v", rep.Records, want)
		}

		j2, rep2, err := Open(path, Metrics{})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		if rep2.Truncated != 0 || rep2.Corrupt != undecodable || !reflect.DeepEqual(rep2.Records, rep.Records) {
			t.Fatalf("second Open = %+v, want the same records and nothing truncated", rep2)
		}
		Pending(rep2.Records)
	})
}

// goodFrame reports the size of the whole frame data starts with, if its
// length is in bounds and its checksum matches. It restates the frame
// layout independently of readFrames.
func goodFrame(data []byte) (int, bool) {
	if len(data) < frameHeader {
		return 0, false
	}
	n := uint64(binary.LittleEndian.Uint32(data[0:4]))
	if n > maxFramePayload || uint64(len(data)-frameHeader) < n {
		return 0, false
	}
	if crc32.Checksum(data[frameHeader:frameHeader+n], crcTable) != binary.LittleEndian.Uint32(data[4:8]) {
		return 0, false
	}
	return frameHeader + int(n), true
}

// fuzzFile builds a fuzzed durable file: payloads, split on '\n', are framed
// one frame per line (so a mutated payload still passes its checksum and
// reaches the JSON decoder), then raw is appended unframed (torn or corrupt
// tails, and whole raw files when payloads is empty). Marshaled JSON never
// holds a raw newline, so a seed's payloads survive the split intact.
func fuzzFile(payloads, raw []byte) []byte {
	var out []byte
	if len(payloads) > 0 {
		for _, p := range bytes.Split(payloads, []byte{'\n'}) {
			out = appendFrame(out, p)
		}
	}
	return append(out, raw...)
}

// FuzzReadSnapshot reads fuzzed bytes as a cache snapshot. ReadSnapshot must
// not panic; every entry it returns must pass its own filter, and only a
// header stamped with FormatVersion may yield entries. Writing the result
// back and reading it again must give the same data (response bodies in the
// compact form WriteSnapshot stores) and count nothing corrupt.
func FuzzReadSnapshot(f *testing.F) {
	hdr, err := json.Marshal(snapshotHeader{Format: FormatVersion, UnixMs: 1})
	if err != nil {
		f.Fatal(err)
	}
	stale, err := json.Marshal(snapshotHeader{Format: "emp-durable-0", UnixMs: 1})
	if err != nil {
		f.Fatal(err)
	}
	var lines [][]byte
	for _, e := range []snapshotEntry{
		{Kind: "result", Result: &ResultEntry{Fingerprint: "fp1", Body: json.RawMessage(`{"p":3}`)}},
		{Kind: "result", Result: &ResultEntry{Fingerprint: "fp2", Body: json.RawMessage(`{"p":4}`)}},
		{Kind: "warmseed", WarmSeed: &WarmSeedEntry{DatasetKey: "dk", JobID: "job-1", Fingerprint: "fp1", Seed: []int{0, 0, 1, -1}, P: 2, H: 1.5}},
	} {
		p, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		lines = append(lines, p)
	}
	valid := bytes.Join(append([][]byte{hdr}, lines...), []byte{'\n'})
	f.Add(valid, []byte(nil))
	f.Add(bytes.Join(append([][]byte{stale}, lines...), []byte{'\n'}), []byte(nil))
	// TestSnapshotCorruptChecksumSkipsTail's file: two results, the last
	// byte flipped, as raw bytes.
	file := fuzzFile(bytes.Join([][]byte{hdr, lines[0], lines[1]}, []byte{'\n'}), nil)
	f.Add([]byte(nil), flip(file, len(file)-1))
	f.Add(bytes.Join([][]byte{hdr, lines[0]}, []byte{'\n'}), []byte{9, 0, 0, 0, 1, 2})
	f.Add([]byte(nil), []byte(nil))

	f.Fuzz(func(t *testing.T, payloads, raw []byte) {
		in := fuzzFile(payloads, raw)
		path := filepath.Join(t.TempDir(), "cache.snapshot")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		got := ReadSnapshot(path, testMetrics(obs.New()))
		for _, r := range got.Results {
			if r.Fingerprint == "" || len(r.Body) == 0 {
				t.Fatalf("restored a result ReadSnapshot's filter drops: %+v", r)
			}
		}
		for _, w := range got.WarmSeeds {
			if w.DatasetKey == "" || len(w.Seed) == 0 {
				t.Fatalf("restored a warm seed ReadSnapshot's filter drops: %+v", w)
			}
		}
		if len(got.Results)+len(got.WarmSeeds) > 0 {
			frames, _, _ := readFrames(in)
			var h snapshotHeader
			if json.Unmarshal(frames[0], &h) != nil || h.Format != FormatVersion {
				t.Fatalf("restored entries under header %q", frames[0])
			}
		}

		if err := WriteSnapshot(path, got); err != nil {
			t.Fatal(err)
		}
		met := testMetrics(obs.New())
		back := ReadSnapshot(path, met)
		if n := met.CorruptRecords.Value(); n != 0 {
			t.Fatalf("rewritten snapshot counted %d corrupt records", n)
		}
		want := got
		want.Results = nil
		for _, r := range got.Results {
			var body bytes.Buffer
			if err := json.Compact(&body, r.Body); err != nil {
				t.Fatalf("restored body %q is not JSON: %v", r.Body, err)
			}
			var esc bytes.Buffer
			json.HTMLEscape(&esc, body.Bytes())
			want.Results = append(want.Results, ResultEntry{Fingerprint: r.Fingerprint, Body: esc.Bytes()})
		}
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("round trip changed the snapshot:\n got %+v\nwant %+v", back, want)
		}
	})
}

// FuzzReadCheckpoint reads fuzzed bytes as a job checkpoint. ReadCheckpoint
// must not panic; ok must imply Format == FormatVersion, and !ok a zero
// Checkpoint. Writing an accepted checkpoint back and reading it again must
// give the same checkpoint and count nothing corrupt, except that
// WriteCheckpoint stamps a zero UnixMs with the current time. The round trip
// writes under a fixed job id, since a decoded one may name a path outside
// the test directory.
func FuzzReadCheckpoint(f *testing.F) {
	ck, err := json.Marshal(Checkpoint{Format: FormatVersion, JobID: "j", Fingerprint: "fp", P: 1, Assign: []int{0}, UnixMs: 1})
	if err != nil {
		f.Fatal(err)
	}
	stale, err := json.Marshal(Checkpoint{Format: "emp-durable-0", JobID: "j", P: 1, Assign: []int{0}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ck, []byte(nil))
	f.Add(stale, []byte(nil))
	// TestCheckpointCorruptAndStale's file with its last byte flipped, as
	// raw bytes.
	file := appendFrame(nil, ck)
	f.Add([]byte(nil), flip(file, len(file)-1))
	f.Add(ck, []byte{9, 0, 0, 0, 1, 2})
	f.Add([]byte(`{"format":"emp-durable-1","assign":null}`), []byte(nil))
	f.Add([]byte(nil), []byte(nil))

	f.Fuzz(func(t *testing.T, payloads, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(CheckpointPath(dir, "job"), fuzzFile(payloads, raw), 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := ReadCheckpoint(dir, "job", testMetrics(obs.New()))
		if !ok {
			if !reflect.DeepEqual(got, Checkpoint{}) {
				t.Fatalf("rejected checkpoint came back non-zero: %+v", got)
			}
			return
		}
		if got.Format != FormatVersion {
			t.Fatalf("accepted a checkpoint stamped %q", got.Format)
		}

		out := got
		out.JobID = "job"
		if err := WriteCheckpoint(dir, out); err != nil {
			t.Fatal(err)
		}
		met := testMetrics(obs.New())
		back, ok := ReadCheckpoint(dir, "job", met)
		if !ok || met.CorruptRecords.Value() != 0 {
			t.Fatalf("rewritten checkpoint: ok=%v, %d corrupt", ok, met.CorruptRecords.Value())
		}
		back.JobID = got.JobID
		if got.UnixMs == 0 {
			if back.UnixMs == 0 {
				t.Fatal("WriteCheckpoint left UnixMs zero")
			}
			back.UnixMs = 0
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("round trip changed the checkpoint:\n got %+v\nwant %+v", back, got)
		}
	})
}
