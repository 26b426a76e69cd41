package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustOpen(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// logView is one job's records merged in log order: the latest hash,
// state, spec and result, and the last record's error.
type logView struct {
	ID, Hash, State string
	Spec, Result    json.RawMessage
	Error           string
}

// scanJobs folds the log, read with Scan, into one view per job ID in
// first-seen order. Records without a job ID are skipped, as replay
// skips them.
func scanJobs(t testing.TB, s *Store) []logView {
	t.Helper()
	var views []logView
	pos := make(map[string]int)
	if err := s.Scan(func(rec Record) error {
		if rec.JobID == "" {
			return nil
		}
		i, ok := pos[rec.JobID]
		if !ok {
			i = len(views)
			pos[rec.JobID] = i
			views = append(views, logView{ID: rec.JobID})
		}
		v := &views[i]
		if rec.Hash != "" {
			v.Hash = rec.Hash
		}
		if rec.State != "" {
			v.State = rec.State
		}
		if len(rec.Spec) > 0 {
			v.Spec = rec.Spec
		}
		if len(rec.Result) > 0 {
			v.Result = rec.Result
		}
		v.Error = rec.Error
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return views
}

// scanJob is scanJobs' view of job id, or false.
func scanJob(t testing.TB, s *Store, id string) (logView, bool) {
	t.Helper()
	for _, v := range scanJobs(t, s) {
		if v.ID == id {
			return v, true
		}
	}
	return logView{}, false
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	spec := json.RawMessage(`{"kind":"avg","n":7}`)
	result := json.RawMessage(`{"outputs":[2.8],"stable":true}`)
	recs := []Record{
		{JobID: "j000001", Hash: "aa11", State: StateQueued, Spec: spec},
		{JobID: "j000002", Hash: "bb22", State: StateQueued, Spec: spec},
		{JobID: "j000001", Hash: "aa11", State: StateRunning},
		{JobID: "j000001", Hash: "aa11", State: StateDone, Result: result},
		{JobID: "j000002", Hash: "bb22", State: StateRunning},
	}
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	if got := r.Stats().Records; got != int64(len(recs)) {
		t.Fatalf("replayed %d records, want %d", got, len(recs))
	}
	j1, ok := scanJob(t, r, "j000001")
	if !ok || j1.State != StateDone || string(j1.Result) != string(result) || string(j1.Spec) != string(spec) {
		t.Fatalf("j000001 replay wrong: %+v (ok=%v)", j1, ok)
	}
	if j1.Error != "" {
		t.Fatalf("j000001 error should be empty, got %q", j1.Error)
	}
	pend := r.Pending()
	if len(pend) != 1 || pend[0].JobID != "j000002" || pend[0].Hash != "bb22" || pend[0].State != StateRunning || string(pend[0].Spec) != string(spec) {
		t.Fatalf("pending = %+v, want running j000002", pend)
	}
	if res, ok := r.ResultByHash("aa11"); !ok || string(res) != string(result) {
		t.Fatalf("ResultByHash(aa11) = %s, %v", res, ok)
	}
	if _, ok := r.ResultByHash("bb22"); ok {
		t.Fatal("ResultByHash(bb22) should miss: job not done")
	}
	if got := r.MaxJobSeq(); got != 2 {
		t.Fatalf("MaxJobSeq = %d, want 2", got)
	}
	jobs := scanJobs(t, r)
	if len(jobs) != 2 || jobs[0].ID != "j000001" || jobs[1].ID != "j000002" {
		t.Fatalf("job order = %+v", jobs)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i, id := range []string{"j000001", "j000002"} {
		_ = i
		if err := s.Append(Record{JobID: id, Hash: "h", State: StateQueued}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a partial frame at the tail.
	seg := filepath.Join(dir, "log", "seg-000001.log")
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 99, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := mustOpen(t, dir, Options{})
	st := r.Stats()
	if st.Records != 2 || !st.TailTruncated {
		t.Fatalf("stats after torn tail: %+v", st)
	}
	// The store must keep appending cleanly after the repair.
	if err := r.Append(Record{JobID: "j000003", Hash: "h", State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := mustOpen(t, dir, Options{})
	if st := r2.Stats(); st.Records != 3 || st.TailTruncated {
		t.Fatalf("stats after repaired reopen: %+v", st)
	}
}

func TestDirtyDirRejected(t *testing.T) {
	cases := []struct {
		name  string
		plant func(dir string) error
	}{
		{"root", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644)
		}},
		{"log", func(dir string) error {
			if err := os.MkdirAll(filepath.Join(dir, "log"), 0o755); err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, "log", "evil.db"), []byte("x"), 0o644)
		}},
		{"ckpt", func(dir string) error {
			if err := os.MkdirAll(filepath.Join(dir, "ckpt"), 0o755); err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, "ckpt", "readme"), []byte("x"), 0o644)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := tc.plant(dir); err != nil {
				t.Fatal(err)
			}
			_, err := Open(dir, Options{})
			if !errors.Is(err, ErrDirtyDir) {
				t.Fatalf("Open = %v, want ErrDirtyDir", err)
			}
		})
	}
}

func TestSegmentRotationReplaysAll(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{MaxSegmentBytes: 96})
	const n = 25
	for i := 0; i < n; i++ {
		rec := Record{JobID: jobID(i), Hash: "deadbeef", State: StateQueued}
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected rotation, stats %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{MaxSegmentBytes: 96})
	if got := r.Stats(); got.Records != n || got.Jobs != n || got.Segments != st.Segments {
		t.Fatalf("replay stats %+v, want %d records over %d segments", got, n, st.Segments)
	}
}

func jobID(i int) string {
	return fmt.Sprintf("j%06d", i+1)
}

// ckptNames lists the files in dir's ckpt/ directory.
func ckptNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestCheckpointSaveLatestDrop(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	hash := "0123456789abcdef0123456789abcdef"
	if _, err := s.LatestCheckpoint(hash); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty LatestCheckpoint = %v, want ErrNoCheckpoint", err)
	}
	if err := s.SaveCheckpoint(hash, []byte("four")); err != nil {
		t.Fatal(err)
	}
	// An upper-case spelling of the hash reaches the same blob.
	if err := s.SaveCheckpoint(strings.ToUpper(hash), []byte("eight")); err != nil {
		t.Fatal(err)
	}
	blob, err := s.LatestCheckpoint(hash)
	if err != nil || string(blob) != "eight" {
		t.Fatalf("LatestCheckpoint = %q %v", blob, err)
	}
	if names := ckptNames(t, dir); len(names) != 1 || names[0] != hash+".ckpt" {
		t.Fatalf("ckpt dir = %v, want exactly %s.ckpt", names, hash)
	}
	if n := s.Stats().Checkpoints; n != 1 {
		t.Fatalf("Stats().Checkpoints = %d, want 1", n)
	}
	// A hash that is not hex names no blob, so it cannot reach outside ckpt/.
	if err := s.SaveCheckpoint("../log/"+hash, []byte("x")); err == nil {
		t.Fatal("SaveCheckpoint accepted a hash that is not hex")
	}
	s.DropCheckpoints(hash)
	if _, err := s.LatestCheckpoint(hash); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("after drop, LatestCheckpoint = %v, want ErrNoCheckpoint", err)
	}
	if n := s.Stats().Checkpoints; n != 0 {
		t.Fatalf("after drop, Stats().Checkpoints = %d, want 0", n)
	}
}

// failWriteFS is a store.FS whose temp-file writes fail on demand.
type failWriteFS struct {
	FS
	fail bool
}

func (f *failWriteFS) CreateTemp(dir, pattern string) (File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil || !f.fail {
		return file, err
	}
	return failWriteFile{file}, nil
}

type failWriteFile struct{ File }

func (failWriteFile) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestCheckpointFailedSaveKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	fs := &failWriteFS{FS: OS()}
	s := mustOpen(t, dir, Options{FS: fs})
	if err := s.SaveCheckpoint("cafe", []byte("first")); err != nil {
		t.Fatal(err)
	}
	fs.fail = true
	if err := s.SaveCheckpoint("cafe", []byte("second")); err == nil {
		t.Fatal("SaveCheckpoint succeeded through a failing write")
	}
	if blob, err := s.LatestCheckpoint("cafe"); err != nil || string(blob) != "first" {
		t.Fatalf("LatestCheckpoint after failed save = %q %v, want the first blob", blob, err)
	}
	if names := ckptNames(t, dir); len(names) != 1 || names[0] != "cafe.ckpt" {
		t.Fatalf("ckpt dir = %v, want exactly cafe.ckpt", names)
	}
	if n := s.Stats().Checkpoints; n != 1 {
		t.Fatalf("Stats().Checkpoints = %d, want 1", n)
	}
}

func TestCheckpointTempSweptOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.SaveCheckpoint("cafe", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// A crash mid-save leaves a .tmp behind, and an earlier build left a
	// round-stamped blob; reopen must sweep both, not reject the dir.
	tmp := filepath.Join(dir, "ckpt", "cafe.ckpt.123.tmp")
	legacy := filepath.Join(dir, "ckpt", "cafe-r00000002.ckpt")
	for _, path := range []string{tmp, legacy} {
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := mustOpen(t, dir, Options{})
	for _, path := range []string{tmp, legacy} {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived reopen: %v", filepath.Base(path), err)
		}
	}
	if blob, err := r.LatestCheckpoint("cafe"); err != nil || string(blob) != "x" {
		t.Fatalf("LatestCheckpoint after sweep = %q %v", blob, err)
	}
	if n := r.Stats().Checkpoints; n != 1 {
		t.Fatalf("Stats().Checkpoints after sweep = %d, want 1", n)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{JobID: "j000001"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := s.SaveCheckpoint("h", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("SaveCheckpoint after Close = %v, want ErrClosed", err)
	}
}

// BenchmarkCheckpointLookupDrop times what each execution of a job that
// never checkpoints asks of the store: one resume lookup and one drop of
// a spec hash with no blob, beside 0 and 10³ other jobs' blobs.
func BenchmarkCheckpointLookupDrop(b *testing.B) {
	hash := func(i int) string {
		sum := sha256.Sum256([]byte(fmt.Sprint(i)))
		return hex.EncodeToString(sum[:])
	}
	for _, blobs := range []int{0, 1_000} {
		b.Run(fmt.Sprintf("blobs=%d", blobs), func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < blobs; i++ {
				if err := s.SaveCheckpoint(hash(i), []byte("blob")); err != nil {
					b.Fatal(err)
				}
			}
			miss := hash(-1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.LatestCheckpoint(miss); !errors.Is(err, ErrNoCheckpoint) {
					b.Fatalf("LatestCheckpoint of a hash with no blob = %v", err)
				}
				s.DropCheckpoints(miss)
			}
		})
	}
}
