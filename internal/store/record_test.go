package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Hashes and bytes of the records in testdata/legacy/seg-000001.log, a
// segment written by the JSON-record Append of earlier builds.
const (
	legacyHashDone     = "e8b46998ec748d1a9c6bedeffe3dee256a0488e1ad297103574b0d4d33158473"
	legacyHashFailed   = "37bbb372edde9717cbfa45082c2701b23ca7bb652190f54d1f757de815ad79f9"
	legacyHashCanceled = "17e27ad09d4474501768b1d683c6eea5d02db85e73c0045de5d9abdf7a933521"
	legacyHashInterr   = "e0bca184ba3689e0f8fd2dec88a93ddf0cccfdc84bba8d4da1c7b601225e9dc9"
	legacyHashQueued   = "d1b62266ef2a3a3e969135913b17c1a98a67086ca4dc94e7d1f4cfb76c481421"
	legacyResult       = `{"outputs":[5,5,5,5,5],"stable":true,"stabilized_at":4,"rounds":9,"expected":5,"max_err":0,"messages":90}`
	legacyDoneSpec     = `{"graph":{"builder":"ring","n":5},"kind":"bc","row":"nohelp","function":"max","values":[1,2,3,4,5],"max_rounds":20,"patience":5}`
)

// openLegacyCopy lays the legacy segment out as a data dir and opens it.
func openLegacyCopy(t *testing.T) (string, *Store) {
	t.Helper()
	seg, err := os.ReadFile(filepath.Join("testdata", "legacy", "seg-000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "log"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "log", "seg-000001.log"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return dir, s
}

func ids(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.JobID
	}
	return out
}

// checkLegacyViews asserts the views the legacy segment replays to.
func checkLegacyViews(t *testing.T, s *Store) {
	t.Helper()
	want := map[string]logView{
		"j000001": {ID: "j000001", Hash: legacyHashDone, State: StateDone, Spec: json.RawMessage(legacyDoneSpec), Result: json.RawMessage(legacyResult)},
		"j000002": {ID: "j000002", Hash: legacyHashFailed, State: StateFailed, Error: "agent panicked: \"<&>\" ü\n"},
		"j000003": {ID: "j000003", Hash: legacyHashCanceled, State: StateCanceled, Error: "canceled"},
		"j000004": {ID: "j000004", Hash: legacyHashInterr, State: StateInterrupted},
		"j000005": {ID: "j000005", Hash: legacyHashQueued, State: StateQueued},
		"j000006": {ID: "j000006", Hash: legacyHashDone, State: StateDone, Spec: json.RawMessage(legacyDoneSpec), Result: json.RawMessage(legacyResult)},
	}
	for id, w := range want {
		v, ok := scanJob(t, s, id)
		if !ok {
			t.Fatalf("job %s missing", id)
		}
		if v.Hash != w.Hash || v.State != w.State || v.Error != w.Error ||
			(w.Spec != nil && !bytes.Equal(v.Spec, w.Spec)) || !bytes.Equal(v.Result, w.Result) {
			t.Fatalf("job %s = %+v, want %+v", id, v, w)
		}
		if len(v.Spec) == 0 || !json.Valid(v.Spec) {
			t.Fatalf("job %s lost its spec: %q", id, v.Spec)
		}
	}
	if got := ids(s.Pending()); !reflect.DeepEqual(got, []string{"j000004", "j000005"}) {
		t.Fatalf("Pending = %v, want the interrupted and the queued job", got)
	}
	if res, ok := s.ResultByHash(legacyHashDone); !ok || string(res) != legacyResult {
		t.Fatalf("ResultByHash = %s, %v", res, ok)
	}
	if _, ok := s.ResultByHash(legacyHashFailed); ok {
		t.Fatal("ResultByHash served a failed job")
	}
}

// TestLegacyLogReplays: a data dir written by the JSON-record builds
// replays to the same views, takes v1 appends, and reopens to the merged
// views.
func TestLegacyLogReplays(t *testing.T) {
	dir, s := openLegacyCopy(t)
	if st := s.Stats(); st.Records != 14 || st.TailTruncated || st.QuarantinedSegments != 0 {
		t.Fatalf("legacy replay stats %+v", st)
	}
	checkLegacyViews(t, s)
	if got := s.MaxJobSeq(); got != 6 {
		t.Fatalf("MaxJobSeq = %d, want 6", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "log", formatMarker)); err != nil {
		t.Fatalf("Open did not write the format marker: %v", err)
	}

	spec := json.RawMessage(`{"graph":{"builder":"ring","n":3}}`)
	result := json.RawMessage(`{"outputs":[3,3,3]}`)
	for _, rec := range []Record{
		{JobID: "j000004", Hash: legacyHashInterr, State: StateRunning, Unix: 7},
		{JobID: "j000004", Hash: legacyHashInterr, State: StateDone, Result: result, Unix: -7},
		{JobID: "j000007", Hash: "f00d", State: StateQueued, Spec: spec},
	} {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	if st := r.Stats(); st.Records != 17 || st.TailTruncated || st.QuarantinedSegments != 0 {
		t.Fatalf("merged replay stats %+v", st)
	}
	if got := ids(r.Pending()); !reflect.DeepEqual(got, []string{"j000005", "j000007"}) {
		t.Fatalf("merged Pending = %v", got)
	}
	if v, _ := scanJob(t, r, "j000004"); v.State != StateDone || string(v.Result) != string(result) {
		t.Fatalf("merged j000004 = %+v", v)
	}
	if v, _ := scanJob(t, r, "j000007"); string(v.Spec) != string(spec) {
		t.Fatalf("merged j000007 spec = %s", v.Spec)
	}
	if res, ok := r.ResultByHash(legacyHashInterr); !ok || string(res) != string(result) {
		t.Fatalf("merged ResultByHash = %s, %v", res, ok)
	}
	if res, ok := r.ResultByHash(legacyHashDone); !ok || string(res) != legacyResult {
		t.Fatalf("legacy ResultByHash after merge = %s, %v", res, ok)
	}
	if got := r.MaxJobSeq(); got != 7 {
		t.Fatalf("merged MaxJobSeq = %d, want 7", got)
	}
}

// TestFormatMarkerAdmitted: the marker Open writes passes this build's
// layout check, and nothing else new does.
func TestFormatMarkerAdmitted(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Append(Record{JobID: "j000001", Hash: "h", State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !reflect.DeepEqual(names, []string{formatMarker, "seg-000001.log"}) {
		t.Fatalf("log/ holds %v", names)
	}
	mustOpen(t, dir, Options{})
	if err := os.WriteFile(filepath.Join(dir, "log", "format-v2"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrDirtyDir) {
		t.Fatalf("Open with an unknown marker = %v, want ErrDirtyDir", err)
	}
}

// TestRecordBound: a record up to the frame ceiling round-trips, and a
// larger one is refused before anything is written. Earlier builds
// accepted an 18.9 MB done record over a 16 MiB ceiling, and replay then
// read its frame as damage, so the job came back queued.
func TestRecordBound(t *testing.T) {
	const outputs = 1 << 20 // MaxAgents
	var b strings.Builder
	b.WriteString(`{"outputs":[`)
	for i := 0; i < outputs; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("524288.4999999991")
	}
	b.WriteString(`],"stable":true,"rounds":2,"expected":524288.4999999991,"max_err":0,"messages":0}`)
	result := json.RawMessage(b.String())

	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for _, rec := range []Record{
		{JobID: "j000001", Hash: "aa", State: StateQueued, Spec: json.RawMessage(`{"n":1048576}`)},
		{JobID: "j000001", Hash: "aa", State: StateDone, Result: result},
		{JobID: "j000002", Hash: "bb", State: StateQueued, Spec: json.RawMessage(`{"n":2}`)},
	} {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	huge := make(json.RawMessage, maxRecordBytes/2)
	err := s.Append(Record{JobID: "j000002", Hash: "bb", State: StateDone, Spec: huge, Result: huge})
	if !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("Append of a record over the ceiling = %v, want ErrRecordTooLarge", err)
	}
	if after := s.Stats(); after != before {
		t.Fatalf("refused append changed the store: %+v → %+v", before, after)
	}
	if v, _ := scanJob(t, s, "j000002"); v.State != StateQueued {
		t.Fatalf("refused append changed the view: %+v", v)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	if st := r.Stats(); st.Records != 3 || st.QuarantinedSegments != 0 || st.TailTruncated || st.LogBytes != before.LogBytes {
		t.Fatalf("reopen stats %+v, want the 3 appended records intact (%d log bytes)", st, before.LogBytes)
	}
	if v, _ := scanJob(t, r, "j000001"); v.State != StateDone || !bytes.Equal(v.Result, result) {
		t.Fatalf("large done record replayed as %q with %d result bytes", v.State, len(v.Result))
	}
	if v, _ := scanJob(t, r, "j000002"); v.State != StateQueued {
		t.Fatalf("j000002 replayed as %q", v.State)
	}
}

// TestDecodeRecord: every field round-trips byte for byte, invalid UTF-8
// included, and a payload the codec did not write is an error.
func TestDecodeRecord(t *testing.T) {
	recs := []Record{
		{},
		{JobID: "j000001", Hash: "\x9a", State: StateFailed, Error: "\xff\x00bad", Unix: -1 << 63},
		{JobID: "j2", Hash: "h", State: StateDone, Spec: json.RawMessage(`{"a":1}`), Result: json.RawMessage(`not json`), Unix: 1<<63 - 1},
	}
	for _, rec := range recs {
		frame, err := encodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		payload := frame[frameHeader:]
		if cap(frame) != len(frame) {
			t.Fatalf("frame of %d bytes holds %d of capacity", len(frame), cap(frame))
		}
		got, err := DecodeRecord(payload)
		if err != nil || !reflect.DeepEqual(got, rec) {
			t.Fatalf("DecodeRecord = %+v, %v; want %+v", got, err, rec)
		}
		for _, bad := range [][]byte{
			payload[:len(payload)-1],
			append(append([]byte(nil), payload...), 0),
			append([]byte{0x02}, payload[1:]...),
		} {
			if _, err := DecodeRecord(bad); err == nil {
				t.Fatalf("DecodeRecord accepted damaged payload %q", bad)
			}
		}
	}
	if _, err := DecodeRecord(nil); err == nil {
		t.Fatal("DecodeRecord accepted an empty payload")
	}
	legacy := []byte(`{"job_id":"j1","hash":"h","state":"queued","spec":{"n":7},"unix":5}`)
	if got, err := DecodeRecord(legacy); err != nil || got.JobID != "j1" || string(got.Spec) != `{"n":7}` || got.Unix != 5 {
		t.Fatalf("legacy DecodeRecord = %+v, %v", got, err)
	}
}
