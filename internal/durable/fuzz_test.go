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
