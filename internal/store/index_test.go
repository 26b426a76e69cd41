package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

// scanResultByHash is the rule ResultByHash's index serves, read from the
// log: the result of the first done record that carries a result under
// hash.
func scanResultByHash(t *testing.T, s *Store, hash string) (json.RawMessage, bool) {
	t.Helper()
	var res json.RawMessage
	found := false
	if err := s.Scan(func(rec Record) error {
		if !found && rec.JobID != "" && rec.Hash == hash && rec.State == StateDone && len(rec.Result) > 0 {
			res, found = rec.Result, true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return res, found
}

// logFold is what the rest of the index must agree with, folded from the
// log: the job IDs in first-seen order, the pending jobs in that order,
// and the highest j<n> sequence. A job is pending when its latest record
// with a state is non-terminal, or none of its records has a state. Its
// pending view merges its records from the one that made it pending: its
// first record, or the first record with a state after its last terminal
// one (a record with no state leaves a finished job finished).
type logFold struct {
	jobs    int
	pending []Record
	maxSeq  int64
}

func foldLog(t *testing.T, s *Store) logFold {
	t.Helper()
	var order []string
	recs := make(map[string][]Record)
	if err := s.Scan(func(rec Record) error {
		if rec.JobID == "" {
			return nil
		}
		if _, ok := recs[rec.JobID]; !ok {
			order = append(order, rec.JobID)
		}
		recs[rec.JobID] = append(recs[rec.JobID], rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	f := logFold{jobs: len(order), pending: []Record{}}
	for _, id := range order {
		if n, err := strconv.ParseInt(id[1:], 10, 64); id[0] == 'j' && err == nil && n > f.maxSeq {
			f.maxSeq = n
		}
		rs := recs[id]
		state, since := "", 0
		for i, r := range rs {
			if r.State != "" {
				state = r.State
			}
			if Terminal(r.State) {
				since = i + 1
			}
		}
		if Terminal(state) {
			continue
		}
		if since > 0 {
			for rs[since].State == "" {
				since++
			}
		}
		p := Record{JobID: id}
		for _, r := range rs[since:] {
			if r.Hash != "" {
				p.Hash = r.Hash
			}
			if r.State != "" {
				p.State = r.State
			}
			if len(r.Spec) > 0 {
				p.Spec = r.Spec
			}
		}
		f.pending = append(f.pending, p)
	}
	return f
}

var indexHashes = []string{"h0", "h1", "h2", "h3", "absent"}

// checkIndexMatchesScan holds every part of the index to the log read
// with Scan: ResultByHash, Stats().Jobs, Stats().Pending, Pending() and
// MaxJobSeq().
func checkIndexMatchesScan(t *testing.T, s *Store, when string) {
	t.Helper()
	for _, h := range indexHashes {
		got, gotOK := s.ResultByHash(h)
		want, wantOK := scanResultByHash(t, s, h)
		if gotOK != wantOK || string(got) != string(want) {
			t.Fatalf("%s: ResultByHash(%s) = %s, %v; the scan finds %s, %v", when, h, got, gotOK, want, wantOK)
		}
	}
	f := foldLog(t, s)
	if st := s.Stats(); st.Jobs != f.jobs || st.Pending != len(f.pending) {
		t.Fatalf("%s: Stats() counts %d jobs, %d pending; the scan finds %d, %d", when, st.Jobs, st.Pending, f.jobs, len(f.pending))
	}
	if got := s.Pending(); !reflect.DeepEqual(got, f.pending) {
		t.Fatalf("%s: Pending() = %+v; the scan finds %+v", when, got, f.pending)
	}
	if got := s.MaxJobSeq(); got != f.maxSeq {
		t.Fatalf("%s: MaxJobSeq() = %d; the scan finds %d", when, got, f.maxSeq)
	}
}

// appendRandom appends n seeded records over few jobs and hashes, so jobs
// reach done under one hash, are overlaid onto another, leave done, and
// share hashes with earlier and later jobs.
func appendRandom(t *testing.T, s *Store, rng *rand.Rand, n int, when string) {
	t.Helper()
	states := []string{StateQueued, StateRunning, StateDone, StateDone, StateFailed, StateCanceled, ""}
	for i := 0; i < n; i++ {
		rec := Record{
			JobID: fmt.Sprintf("j%06d", rng.Intn(24)),
			State: states[rng.Intn(len(states))],
		}
		if rng.Intn(4) != 0 {
			rec.Hash = indexHashes[rng.Intn(len(indexHashes)-1)]
		}
		if rng.Intn(2) == 0 {
			rec.Result = json.RawMessage(fmt.Sprintf(`{"r":%d}`, rng.Intn(1000)))
		}
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
		checkIndexMatchesScan(t, s, fmt.Sprintf("%s, append %d", when, i))
	}
}

func TestResultByHashIndexMatchesScan(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	opt := Options{MaxSegmentBytes: 256}

	s := mustOpen(t, dir, opt)
	appendRandom(t, s, rng, 300, "first boot")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, opt)
	checkIndexMatchesScan(t, s, "after replay")
	appendRandom(t, s, rng, 300, "second boot")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Damage the middle of a non-final segment: replay seals it to
	// .quarantine and loses its frames after the damage.
	segs, err := filepath.Glob(filepath.Join(dir, "log", "seg-*.log"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("expected ≥3 segments, got %d (%v)", len(segs), err)
	}
	victim := segs[len(segs)/2]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeader+1] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, opt)
	defer s.Close()
	if s.Stats().QuarantinedSegments == 0 {
		t.Fatal("damaged segment was not quarantined")
	}
	checkIndexMatchesScan(t, s, "after quarantine")
	appendRandom(t, s, rng, 100, "after quarantine")
}

// TestResultByHashRereadsTheLog: a disk hit reads its frame back from the
// segment, so a frame damaged after Open is a miss, not stale bytes, and
// the next done record carrying a result under the hash is served.
func TestResultByHashRereadsTheLog(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	first := json.RawMessage(`{"outputs":[1]}`)
	for _, rec := range []Record{
		{JobID: "j000001", Hash: "aa", State: StateQueued, Spec: json.RawMessage(`{"n":1}`)},
		{JobID: "j000001", Hash: "aa", State: StateDone, Result: first},
	} {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	if res, ok := r.ResultByHash("aa"); !ok || !bytes.Equal(res, first) {
		t.Fatalf("ResultByHash before the damage = %s, %v", res, ok)
	}
	seg := filepath.Join(dir, "log", "seg-000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// The served frame is the last one, and its last byte is a payload
	// byte of the result.
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if res, ok := r.ResultByHash("aa"); ok {
		t.Fatalf("ResultByHash served %s from a damaged frame", res)
	}

	fresh := json.RawMessage(`{"outputs":[2]}`)
	if err := r.Append(Record{JobID: "j000002", Hash: "aa", State: StateDone, Result: fresh}); err != nil {
		t.Fatal(err)
	}
	if res, ok := r.ResultByHash("aa"); !ok || !bytes.Equal(res, fresh) {
		t.Fatalf("ResultByHash after a fresh done record = %s, %v; want %s", res, ok, fresh)
	}
}

// TestReadsDuringAppends: ResultByHash reads its frame back and Scan reads
// the segments without holding the append lock, so both run beside
// appends that rotate segments. Every hash has one result encoding, so a
// hit must return exactly it.
func TestReadsDuringAppends(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{MaxSegmentBytes: 512})
	result := func(k int) json.RawMessage { return json.RawMessage(fmt.Sprintf(`{"outputs":[%d]}`, k)) }
	const appends, hashes = 400, 8
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for k := 0; k < hashes; k++ {
					if res, ok := s.ResultByHash(fmt.Sprintf("h%d", k)); ok && !bytes.Equal(res, result(k)) {
						t.Errorf("ResultByHash(h%d) = %s, want %s", k, res, result(k))
					}
				}
				n := 0
				if err := s.Scan(func(Record) error { n++; return nil }); err != nil || n > appends {
					t.Errorf("Scan read %d records, %v", n, err)
				}
				s.Stats()
				s.Pending()
			}
		}()
	}
	for i := 0; i < appends; i += 2 {
		id, k := jobID(i), (i/2)%hashes
		for _, rec := range []Record{
			{JobID: id, Hash: fmt.Sprintf("h%d", k), State: StateQueued, Spec: json.RawMessage(`{"n":1}`)},
			{JobID: id, Hash: fmt.Sprintf("h%d", k), State: StateDone, Result: result(k)},
		} {
			if err := s.Append(rec); err != nil {
				t.Error(err)
			}
		}
	}
	close(done)
	wg.Wait()
	if st := s.Stats(); st.Segments < 2 || st.Records != appends || st.Pending != 0 {
		t.Fatalf("stats after the appends: %+v", st)
	}
}

// TestScanSkipsMissingSegment: a segment index with no file (a
// quarantine whose rewrite failed leaves one) is skipped, and Scan reads
// every record replay did.
func TestScanSkipsMissingSegment(t *testing.T) {
	dir := t.TempDir()
	segs := fillSegments(t, dir, 12)
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{MaxSegmentBytes: 128})
	n := 0
	if err := s.Scan(func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if want := s.Stats().Records; int64(n) != want || n == 0 {
		t.Fatalf("Scan read %d records, replay %d", n, want)
	}
	if _, ok := scanJob(t, s, jobID(11)); !ok {
		t.Fatal("the last segment's job is missing from Scan")
	}
}

// failOpenFS is a store.FS that fails the next O_EXCL open when armed:
// the open a segment rotation makes.
type failOpenFS struct {
	FS
	armed bool
}

func (f *failOpenFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	if f.armed && flag&os.O_EXCL != 0 {
		f.armed = false
		return nil, errors.New("injected open failure")
	}
	return f.FS.OpenFile(path, flag, perm)
}

// TestRotationRetriesAfterFailedOpen: a rotation whose open fails leaves
// the current segment active, so the append that needed it fails and the
// next one rotates. Earlier builds closed the active segment first and
// then failed every later append on the closed file.
func TestRotationRetriesAfterFailedOpen(t *testing.T) {
	dir := t.TempDir()
	fs := &failOpenFS{FS: OS()}
	opt := Options{MaxSegmentBytes: 96, FS: fs}
	s := mustOpen(t, dir, opt)
	var logged []Record
	appendRec := func(i int) error {
		rec := Record{JobID: jobID(i), Hash: "deadbeef", State: StateQueued}
		err := s.Append(rec)
		if err == nil {
			logged = append(logged, rec)
		}
		return err
	}
	if err := appendRec(0); err != nil {
		t.Fatal(err)
	}
	fs.armed = true
	next := 1
	for fs.armed {
		if next > 20 {
			t.Fatal("no rotation within 20 appends")
		}
		err := appendRec(next)
		if fs.armed && err != nil {
			t.Fatalf("append %d failed before the injected fault: %v", next, err)
		}
		if !fs.armed && err == nil {
			t.Fatalf("append %d succeeded through the failed rotation", next)
		}
		next++
	}
	for k := 0; k < 3; k++ {
		if err := appendRec(next + k); err != nil {
			t.Fatalf("append %d after the failed rotation: %v", k+1, err)
		}
	}
	segsOnDisk := func() int {
		segs, err := filepath.Glob(filepath.Join(dir, "log", "seg-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		return len(segs)
	}
	if got, want := s.Stats().Segments, segsOnDisk(); got != want {
		t.Fatalf("Stats().Segments = %d, %d segment files on disk", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{MaxSegmentBytes: 96})
	var replayed []Record
	if err := r.Scan(func(rec Record) error {
		replayed = append(replayed, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, logged) {
		t.Fatalf("reopen replays %d records %+v, want the %d successful appends %+v", len(replayed), replayed, len(logged), logged)
	}
	if got, want := r.Stats().Segments, segsOnDisk(); got != want {
		t.Fatalf("after reopen Stats().Segments = %d, %d segment files on disk", got, want)
	}
}

// The logs appendShape writes: 256 jobs with the spec and result sizes of
// perfbench's n=10⁴ jobs, and 64 members per hash in the dedup shape.
const (
	shapeJobs     = 256
	shapeSpecSize = 49_024
	shapeResSize  = 48_990
	shapeDedup    = 64
)

// appendShape appends shapeJobs finished jobs in one of two shapes:
// "distinct", one job per spec hash, each queued with its spec, running,
// then done with its result; and "dedup", 64 members per hash with a spec
// on every queued record and one result per hash.
func appendShape(t *testing.T, s *Store, shape string) {
	t.Helper()
	spec := bytes.Repeat([]byte("s"), shapeSpecSize)
	result := bytes.Repeat([]byte("r"), shapeResSize)
	for i := 0; i < shapeJobs; i++ {
		id, hash := jobID(i), fmt.Sprintf("%064x", i)
		firstOfHash := true
		if shape == "dedup" {
			hash = fmt.Sprintf("%064x", i/shapeDedup)
			firstOfHash = i%shapeDedup == 0
		}
		done := Record{JobID: id, Hash: hash, State: StateDone}
		if firstOfHash {
			done.Result = result
		}
		for _, rec := range []Record{
			{JobID: id, Hash: hash, State: StateQueued, Spec: spec},
			{JobID: id, Hash: hash, State: StateRunning},
			done,
		} {
			if err := s.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestReopenRetainsIndexOnly: reopening a log keeps the index, not the
// jobs, so the heap a reopen retains does not grow with the spec and
// result bytes in the log. The shapes are appendShape's. Earlier builds
// retained about 98 KB and 48 KB per job.
func TestReopenRetainsIndexOnly(t *testing.T) {
	const perJob = 2 << 10
	for _, shape := range []string{"distinct", "dedup"} {
		t.Run(shape, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			appendShape(t, s, shape)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			r, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			defer r.Close()
			if st := r.Stats(); st.Jobs != shapeJobs || st.Pending != 0 {
				t.Fatalf("reopen stats %+v, want %d finished jobs", st, shapeJobs)
			}
			if res, ok := r.ResultByHash(fmt.Sprintf("%064x", 0)); !ok || !bytes.Equal(res, bytes.Repeat([]byte("r"), shapeResSize)) {
				t.Fatalf("ResultByHash after reopen: %d bytes, %v", len(res), ok)
			}
			grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
			t.Logf("reopen retains %d B (%d B per job)", grown, grown/shapeJobs)
			if grown > perJob*shapeJobs {
				t.Fatalf("reopen retains %d B, %d B per job; want ≤ %d per job", grown, grown/shapeJobs, perJob)
			}
			runtime.KeepAlive(r)
		})
	}
}

// TestOpenCopiesOnlyPendingSpecs: replay decodes each record in place in
// the segment it read, and copies out only the specs pending jobs keep.
// The log is appendShape's "distinct" one behind a job left queued with
// its spec, in the first segment. Opening it allocates little more than
// the bytes it reads (earlier builds cloned every spec and result, about
// twice the log), and the pending spec is a copy: the heap the reopen
// retains holds no segment.
func TestOpenCopiesOnlyPendingSpecs(t *testing.T) {
	const perJob = 2 << 10
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	spec := bytes.Repeat([]byte("p"), shapeSpecSize)
	if err := s.Append(Record{JobID: "j999999", Hash: fmt.Sprintf("%064x", 999_999), State: StateQueued, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	appendShape(t, s, "distinct")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&after)
	defer r.Close()
	logBytes := r.Stats().LogBytes
	t.Logf("Open allocates %d B for a %d-B log (%.2f×)", alloc, logBytes, float64(alloc)/float64(logBytes))
	if float64(alloc) > 1.25*float64(logBytes) {
		t.Fatalf("Open allocates %d B, %.2f× the log's %d B; want ≤ 1.25×", alloc, float64(alloc)/float64(logBytes), logBytes)
	}
	if p := r.Pending(); len(p) != 1 || p[0].JobID != "j999999" || !bytes.Equal(p[0].Spec, spec) {
		t.Fatalf("pending after reopen: %d jobs, want j999999 with its %d-B spec", len(p), len(spec))
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if bound := int64(perJob*shapeJobs + len(spec)); grown > bound {
		t.Fatalf("reopen retains %d B, want ≤ %d: the pending spec keeps its segment alive", grown, bound)
	}
	runtime.KeepAlive(r)
}

// BenchmarkResultByHash times one disk-tier lookup — a hit and a miss —
// against logs of 10³ and 10⁵ done jobs. A miss is one index lookup and a
// hit reads one frame back, so neither grows with the log's size.
func BenchmarkResultByHash(b *testing.B) {
	for _, jobs := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{MaxSegmentBytes: 64 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < jobs; i++ {
				if err := s.Append(Record{JobID: fmt.Sprintf("j%06d", i), Hash: fmt.Sprintf("h%d", i),
					State: StateDone, Result: json.RawMessage(`{"outputs":[1]}`)}); err != nil {
					b.Fatal(err)
				}
			}
			hit := fmt.Sprintf("h%d", jobs/2)
			runtime.GC() // collect the set-up's garbage outside the timed loop
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.ResultByHash(hit); !ok {
					b.Fatal("miss on a logged hash")
				}
				if _, ok := s.ResultByHash("never-logged"); ok {
					b.Fatal("hit on an unlogged hash")
				}
			}
		})
	}
}
