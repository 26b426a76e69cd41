package store

// Corruption-recovery coverage beyond the torn final tail: quarantine of
// damaged mid-log segments, garbage length prefixes on otherwise-plausible
// frames, and the append write-error self-repair path.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fillSegments appends enough queued records to roll over into at least
// three segments and returns the sorted live segment paths.
func fillSegments(t *testing.T, dir string, n int) []string {
	t.Helper()
	s := mustOpen(t, dir, Options{MaxSegmentBytes: 128})
	for i := 0; i < n; i++ {
		if err := s.Append(Record{JobID: jobID(i), Hash: "somehash", State: StateQueued}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "log", "seg-*.log"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("expected ≥3 segments, got %d (%v)", len(segs), err)
	}
	return segs
}

// countFrames walks a segment's frames, returning how many verify.
func countFrames(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames, off := 0, 0
	for len(data)-off >= frameHeader {
		n := int(binary.BigEndian.Uint32(data[off:]))
		if n > maxRecordBytes || off+frameHeader+n > len(data) {
			break
		}
		if crc32.ChecksumIEEE(data[off+frameHeader:off+frameHeader+n]) != binary.BigEndian.Uint32(data[off+4:]) {
			break
		}
		frames++
		off += frameHeader + n
	}
	return frames
}

// TestQuarantineMidSegmentCorruption is the quarantine contract: damage in
// the middle of a non-final segment seals the segment to .quarantine,
// keeps every frame before the damage, drops the unverifiable suffix of
// that one segment, and replays every later segment — twice over, since
// the repaired log must also reopen cleanly.
func TestQuarantineMidSegmentCorruption(t *testing.T) {
	const records = 12
	dir := t.TempDir()
	segs := fillSegments(t, dir, records)
	victim := segs[1]
	framesBefore := countFrames(t, victim)

	// Flip a byte inside the victim's second frame: its first frame must
	// survive, the rest of the segment must not.
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	n := int(binary.BigEndian.Uint32(data))
	data[frameHeader+n+frameHeader+2] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	lostInVictim := framesBefore - 1
	s := mustOpen(t, dir, Options{MaxSegmentBytes: 128})
	st := s.Stats()
	if st.QuarantinedSegments != 1 {
		t.Fatalf("QuarantinedSegments = %d, want 1", st.QuarantinedSegments)
	}
	if want := int64(records - lostInVictim); st.Records != want {
		t.Fatalf("replayed %d records, want %d (lost %d with the seal)", st.Records, want, lostInVictim)
	}
	// The forensic copy holds the damaged original; the live segment holds
	// exactly the valid prefix.
	if _, err := os.Stat(victim + ".quarantine"); err != nil {
		t.Fatalf("quarantine seal missing: %v", err)
	}
	if got := countFrames(t, victim); got != 1 {
		t.Fatalf("repaired segment has %d frames, want the 1 pre-damage frame", got)
	}
	// Records from segments after the victim replayed: the last appended
	// job is present.
	if _, ok := scanJob(t, s, jobID(records-1)); !ok {
		t.Fatal("record from a post-quarantine segment lost")
	}
	// The store keeps appending, and the repaired log reopens without
	// re-quarantining.
	if err := s.Append(Record{JobID: "jnew001", Hash: "h", State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{MaxSegmentBytes: 128})
	st = r.Stats()
	if st.QuarantinedSegments != 1 {
		t.Fatalf("reopen QuarantinedSegments = %d, want 1 (the standing seal)", st.QuarantinedSegments)
	}
	if want := int64(records - lostInVictim + 1); st.Records != want {
		t.Fatalf("reopen replayed %d records, want %d", st.Records, want)
	}
}

// TestQuarantineTornTailNonFinalSegment covers the crash-then-rotate
// shape: a partial frame at the end of a segment that is no longer final
// (a later daemon rotated past it) is the same damage class as mid-segment
// corruption and quarantines rather than truncating silently.
func TestQuarantineTornTailNonFinalSegment(t *testing.T) {
	dir := t.TempDir()
	segs := fillSegments(t, dir, 12)
	victim := segs[len(segs)-2]
	frames := countFrames(t, victim)

	// Append half a frame header to the non-final victim.
	f, err := os.OpenFile(victim, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 42, 9}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s := mustOpen(t, dir, Options{MaxSegmentBytes: 128})
	st := s.Stats()
	if st.QuarantinedSegments != 1 {
		t.Fatalf("QuarantinedSegments = %d, want 1", st.QuarantinedSegments)
	}
	if st.TailTruncated {
		t.Fatal("TailTruncated set — the final-segment repair path ran on a non-final segment")
	}
	// Nothing was actually lost: every whole frame precedes the torn tail.
	if got := countFrames(t, victim); got != frames {
		t.Fatalf("repaired segment has %d frames, want all %d", got, frames)
	}
}

// TestGarbageLengthPrefix pins the insane-length guard: a frame whose
// length field reads past maxRecordBytes must be treated as corruption —
// truncated in the final segment, quarantined in an earlier one — never as
// an allocation request.
func TestGarbageLengthPrefix(t *testing.T) {
	buildFrame := func(rec Record) []byte {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		frame := make([]byte, frameHeader+len(payload))
		binary.BigEndian.PutUint32(frame, uint32(len(payload)))
		binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
		copy(frame[frameHeader:], payload)
		return frame
	}
	cases := []struct {
		name    string
		mangle  func(frame []byte)
		inFinal bool
	}{
		// The payload and CRC are untouched and still valid — only the
		// length prefix lies, claiming an absurd size.
		{"final segment", func(frame []byte) {
			binary.BigEndian.PutUint32(frame, uint32(maxRecordBytes)+1)
		}, true},
		{"non-final segment", func(frame []byte) {
			binary.BigEndian.PutUint32(frame, uint32(maxRecordBytes)+1)
		}, false},
		// A length that points past the end of the file but under the
		// ceiling: indistinguishable from a torn frame.
		{"overlong length final", func(frame []byte) {
			binary.BigEndian.PutUint32(frame, uint32(1<<20))
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			segs := fillSegments(t, dir, 12)
			victim := segs[len(segs)-1]
			if !tc.inFinal {
				victim = segs[1]
			}
			data, err := os.ReadFile(victim)
			if err != nil {
				t.Fatal(err)
			}
			// Mangle the victim's last frame in place.
			rec := Record{JobID: "jmangle", Hash: "h", State: StateQueued}
			frame := buildFrame(rec)
			tc.mangle(frame)
			f, err := os.OpenFile(victim, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(frame); err != nil {
				t.Fatal(err)
			}
			f.Close()
			before := countFrames(t, victim)

			s := mustOpen(t, dir, Options{MaxSegmentBytes: 128})
			st := s.Stats()
			if tc.inFinal {
				if !st.TailTruncated || st.QuarantinedSegments != 0 {
					t.Fatalf("final-segment garbage length: stats %+v, want tail truncation only", st)
				}
			} else {
				if st.QuarantinedSegments != 1 || st.TailTruncated {
					t.Fatalf("non-final garbage length: stats %+v, want one quarantine", st)
				}
			}
			if _, ok := scanJob(t, s, "jmangle"); ok {
				t.Fatal("the mangled frame replayed as a record")
			}
			if got := countFrames(t, victim); got != before {
				t.Fatalf("%d frames survive repair, want %d", got, before)
			}
			_ = data
		})
	}
}

// TestAppendWriteErrorRepairsSegment drives the write-failure self-repair:
// a short write leaves a partial frame that Append must cut back to the
// last frame boundary, so the very next append lands cleanly and replay
// sees no damage at all.
func TestAppendWriteErrorRepairsSegment(t *testing.T) {
	dir := t.TempDir()
	ffs := &flakyFS{FS: OS(), failWrites: map[int]int{2: 10}} // 2nd log write: 10 bytes then error
	s, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{JobID: "j000001", Hash: "h", State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	err = s.Append(Record{JobID: "j000002", Hash: "h", State: StateQueued})
	if err == nil || errors.Is(err, ErrSyncFailed) {
		t.Fatalf("short-written append = %v, want a plain write error", err)
	}
	if got := s.Stats().AppendErrors; got != 1 {
		t.Fatalf("AppendErrors = %d, want 1", got)
	}
	// The lost record is really lost, the log is clean, appends continue.
	if _, ok := scanJob(t, s, "j000002"); ok {
		t.Fatal("failed append reached the log")
	}
	if err := s.Append(Record{JobID: "j000003", Hash: "h", State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	st := r.Stats()
	if st.Records != 2 || st.TailTruncated || st.QuarantinedSegments != 0 {
		t.Fatalf("replay after repaired short write: %+v, want 2 clean records", st)
	}
	if _, ok := scanJob(t, r, "j000003"); !ok {
		t.Fatal("post-repair record lost")
	}
}

// TestAppendSyncFailureIsTyped pins the ErrSyncFailed satellite: a failed
// fsync surfaces as ErrSyncFailed, the record itself survives replay
// (lost durability, not lost data), and the failure classes are counted
// apart.
func TestAppendSyncFailureIsTyped(t *testing.T) {
	dir := t.TempDir()
	ffs := &flakyFS{FS: OS(), failSyncs: map[int]bool{2: true}}
	s, err := Open(dir, Options{Sync: true, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{JobID: "j000001", Hash: "h", State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	err = s.Append(Record{JobID: "j000002", Hash: "h", State: StateDone})
	if !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("append with failing fsync = %v, want ErrSyncFailed", err)
	}
	st := s.Stats()
	if st.SyncFailures != 1 || st.AppendErrors != 0 {
		t.Fatalf("stats %+v, want exactly one sync failure and no append errors", st)
	}
	// The frame reached the file: the record is applied and replays.
	if v, ok := scanJob(t, s, "j000002"); !ok || v.State != StateDone {
		t.Fatalf("sync-failed record not applied: %+v (ok=%v)", v, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	if v, ok := scanJob(t, r, "j000002"); !ok || v.State != StateDone {
		t.Fatalf("sync-failed record lost on replay: %+v (ok=%v)", v, ok)
	}
}

// flakyFS injects scripted failures into specific log-file operations by
// ordinal: failWrites[n] = k makes the n-th segment write stop after k
// bytes, failSyncs[n] makes the n-th segment fsync fail. Only files under
// log/ are intercepted.
type flakyFS struct {
	FS
	writes     int
	syncs      int
	failWrites map[int]int
	failSyncs  map[int]bool
}

func (f *flakyFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	file, err := f.FS.OpenFile(path, flag, perm)
	if err != nil || !strings.Contains(path, string(os.PathSeparator)+"log"+string(os.PathSeparator)) {
		return file, err
	}
	return &flakyFile{File: file, fs: f}, nil
}

type flakyFile struct {
	File
	fs *flakyFS
}

func (f *flakyFile) Write(p []byte) (int, error) {
	f.fs.writes++
	if k, ok := f.fs.failWrites[f.fs.writes]; ok {
		if k > len(p) {
			k = len(p)
		}
		n, _ := f.File.Write(p[:k])
		return n, fmt.Errorf("flaky: injected write error after %d bytes", n)
	}
	return f.File.Write(p)
}

func (f *flakyFile) Sync() error {
	f.fs.syncs++
	if f.fs.failSyncs[f.fs.syncs] {
		return fmt.Errorf("flaky: injected fsync error")
	}
	return f.File.Sync()
}
