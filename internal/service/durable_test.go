package service

// Durability coverage of persist and its backfill: the service must
// survive a store that goes dark — keep running jobs and serving results,
// report degraded:true on readiness while staying Ready, and backfill the
// log, in job-ID order, once an append lands again — and a store whose
// fsyncs fail loses no job.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"anonnet/internal/job"
	"anonnet/internal/store"
)

// switchFS is a store.FS whose log-file writes and fsyncs can be failed
// at will — the service-level stand-in for a dying disk.
type switchFS struct {
	store.FS
	failWrites atomic.Bool
	failSyncs  atomic.Bool
}

func newSwitchFS() *switchFS { return &switchFS{FS: store.OS()} }

var errDiskDark = errors.New("switchFS: disk dark")
var errSyncDark = errors.New("switchFS: fsync refused")

func (s *switchFS) OpenFile(path string, flag int, perm os.FileMode) (store.File, error) {
	f, err := s.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &switchFile{File: f, fs: s}, nil
}

func (s *switchFS) CreateTemp(dir, pattern string) (store.File, error) {
	f, err := s.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &switchFile{File: f, fs: s}, nil
}

type switchFile struct {
	store.File
	fs *switchFS
}

func (f *switchFile) Write(p []byte) (int, error) {
	if f.fs.failWrites.Load() {
		return 0, errDiskDark
	}
	return f.File.Write(p)
}

func (f *switchFile) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	if f.fs.failSyncs.Load() {
		return errSyncDark
	}
	return nil
}

func openSwitchStore(t *testing.T, dir string, fs *switchFS, sync bool) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{FS: fs, Sync: sync})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDarkDiskDegradesAndBackfills: while the disk refuses writes, jobs
// still run to done and results serve from memory, and the service reports
// degraded (yet ready) as long as some job's latest transition is missing
// from the log. The first append that lands after the disk heals backfills
// every such job, and a fresh replay holds every job done with its result.
func TestDarkDiskDegradesAndBackfills(t *testing.T) {
	dir := t.TempDir()
	fs := newSwitchFS()
	st := openSwitchStore(t, dir, fs, false)
	s := New(Config{Workers: 1, Store: st, CheckpointEvery: 50})

	// A healthy warm-up job proves the log works, then the disk goes dark.
	warm, err := s.Submit(durableSpec(301, 300))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, warm.ID)
	if s.Stats().Degraded {
		t.Fatal("degraded before any append failed")
	}
	fs.failWrites.Store(true)

	// Every append of these jobs fails: queued, running and done.
	dark := make([]*Job, 0, 3)
	for i := 0; i < 3; i++ {
		j, err := s.Submit(durableSpec(int64(310+i), 300))
		if err != nil {
			t.Fatalf("submit during dark disk must still work, got %v", err)
		}
		dark = append(dark, waitTerminal(t, s, j.ID))
	}
	for _, j := range dark {
		if j.State != StateDone || j.Result == nil {
			t.Fatalf("degraded job %s = %s, want done with result", j.ID, j.State)
		}
	}
	if stats := s.Stats(); !stats.Degraded || stats.StoreErrors == 0 {
		t.Fatalf("stats after dark stretch: %+v, want degraded with store errors", stats)
	}
	rd := s.Readiness()
	if !rd.Ready || !rd.Degraded {
		t.Fatalf("readiness while degraded = %+v, want Ready && Degraded", rd)
	}

	// Results still serve from the in-memory tier: an identical spec is a
	// cache hit, no disk needed.
	hit, err := s.Submit(durableSpec(310, 300))
	if err != nil || !hit.CacheHit {
		t.Fatalf("cache-hit submit while degraded = %+v, %v", hit, err)
	}

	// The disk heals: the next submission's first append lands and
	// backfills the dark jobs and the hit before Submit returns.
	fs.failWrites.Store(false)
	probe, err := s.Submit(durableSpec(320, 300))
	if err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if stats.Degraded {
		t.Fatalf("still degraded after an append landed: %+v", stats)
	}
	if want := int64(len(dark) + 1); stats.Backfilled != want {
		t.Fatalf("backfilled %d jobs, want the %d dark ones and the hit", stats.Backfilled, want)
	}
	rd = s.Readiness()
	if !rd.Ready || rd.Degraded {
		t.Fatalf("readiness after recovery = %+v, want Ready && !Degraded", rd)
	}
	waitTerminal(t, s, probe.ID)
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The log now holds the truth: a fresh store replays every job —
	// including the ones finished or served from cache while the disk was
	// dark — as done, with the results the degraded service computed.
	st2 := openStore(t, dir)
	defer st2.Close()
	all := append(append([]*Job{warm}, dark...), hit, probe)
	for _, j := range all {
		v, ok := scanJob(t, st2, j.ID)
		if !ok || v.State != store.StateDone {
			t.Fatalf("job %s after backfill: ok=%v state=%q, want done", j.ID, ok, v.State)
		}
		if len(v.Result) == 0 {
			t.Fatalf("job %s backfilled without a result", j.ID)
		}
	}
	if got := len(scanJobs(t, st2)); got != len(all) {
		t.Fatalf("log holds %d jobs, want %d (no losses, no duplicates)", got, len(all))
	}
}

// TestBackfillInJobIDOrder: the backfill writes the dirty jobs in
// ascending job-ID order, so the log's record sequence — which a chaos
// plan's failpoints are keyed by — replays from the run alone. Five jobs
// finish while the disk is dark; the first append that lands after it
// heals is followed by their five backfill records in ID order, on every
// repetition.
func TestBackfillInJobIDOrder(t *testing.T) {
	for rep := 0; rep < 10; rep++ {
		dir := t.TempDir()
		fs := newSwitchFS()
		st := openSwitchStore(t, dir, fs, false)
		s := New(Config{Workers: 1, Store: st})

		fs.failWrites.Store(true)
		specs := make([]job.Spec, 5)
		for i := range specs {
			specs[i] = durableSpec(int64(700+i), 30)
		}
		b, err := s.SubmitBatch(specs)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, j := range b.Jobs {
			waitTerminal(t, s, j.ID)
			want = append(want, j.ID)
		}
		before := st.Stats().Records
		fs.failWrites.Store(false)
		probe, err := s.Submit(durableSpec(799, 30))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, probe.ID)
		s.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		st2 := openStore(t, dir)
		var got []string
		var seen int64
		if err := st2.Scan(func(rec store.Record) error {
			// The probe's queued record lands first, then the backfill.
			if seen++; seen > before+1 && len(got) < len(want) {
				if rec.State != store.StateDone || len(rec.Spec) == 0 || len(rec.Result) == 0 {
					return fmt.Errorf("backfill record %+v, want done with spec and result", rec)
				}
				got = append(got, rec.JobID)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		st2.Close()
		if !slices.Equal(got, want) {
			t.Fatalf("repetition %d: backfilled %v, want job-ID order %v", rep, got, want)
		}
	}
}

// TestSyncFailuresCountedButNotDirty: an append whose fsync fails reached
// the file, so it is counted as a sync failure and leaves no job dirty.
func TestSyncFailuresCountedButNotDirty(t *testing.T) {
	dir := t.TempDir()
	fs := newSwitchFS()
	st := openSwitchStore(t, dir, fs, true)
	s := New(Config{Workers: 1, Store: st})

	fs.failSyncs.Store(true)
	j, err := s.Submit(durableSpec(401, 200))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, j.ID)
	stats := s.Stats()
	if stats.SyncFailures == 0 || stats.SyncFailures != stats.StoreErrors {
		t.Fatalf("sync failures %d / store errors %d, want equal and nonzero", stats.SyncFailures, stats.StoreErrors)
	}
	if stats.Degraded || stats.Backfilled != 0 {
		t.Fatalf("sync-only failures left the service degraded: %+v", stats)
	}
	s.Close()
	st.Close()

	// ErrSyncFailed appends reached the file: everything replays without a
	// backfill having ever run.
	st2 := openStore(t, dir)
	defer st2.Close()
	if v, ok := scanJob(t, st2, j.ID); !ok || v.State != store.StateDone {
		t.Fatalf("sync-failed records did not replay: ok=%v %+v", ok, v)
	}
}

// TestSyncFailingDiskKeepsEveryJob: on a synced store whose every fsync
// fails while its writes land, six sequential durable jobs under the
// default config all reach the log done. The store is closed without a
// shutdown, as a crash would leave it.
func TestSyncFailingDiskKeepsEveryJob(t *testing.T) {
	dir := t.TempDir()
	fs := newSwitchFS()
	st := openSwitchStore(t, dir, fs, true)
	s := New(Config{Store: st})
	defer s.Close()

	fs.failSyncs.Store(true)
	var ids []string
	for i := 0; i < 6; i++ {
		j, err := s.Submit(durableSpec(int64(450+i), 60))
		if err != nil {
			t.Fatal(err)
		}
		if j = waitTerminal(t, s, j.ID); j.State != StateDone {
			t.Fatalf("job %s = %s, want done", j.ID, j.State)
		}
		ids = append(ids, j.ID)
	}
	if err := st.Close(); err != nil && !errors.Is(err, errSyncDark) {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	done := 0
	for _, id := range ids {
		if v, ok := scanJob(t, st2, id); ok && v.State == store.StateDone && len(v.Result) > 0 {
			done++
		}
	}
	if done != len(ids) {
		t.Fatalf("the reopened log holds %d of %d jobs done", done, len(ids))
	}
}

// TestOversizeBackfillLoggedWithoutPayloads: a backfill record carries
// a job's spec and result together, and one over the log's 64 MiB frame
// ceiling is refused by the store whatever the disk does. The service
// logs the transition without its spec and result, counts one store
// error, and does not leave the job dirty.
func TestOversizeBackfillLoggedWithoutPayloads(t *testing.T) {
	dir := t.TempDir()
	fs := newSwitchFS()
	st := openSwitchStore(t, dir, fs, false)
	s := New(Config{Workers: 1, Store: st})

	// A cache hit on a 64 MiB result planted in the result index, while
	// the disk is dark: its spec record fails and the job is left dirty.
	huge := append([]byte(`{"outputs":[`), bytes.Repeat([]byte("0,"), 32<<20)...)
	huge = append(huge, `0],"stable":true,"rounds":2,"expected":0,"max_err":0,"messages":0}`...)
	spec := job.Spec{Graph: job.GraphSpec{Builder: "ring", N: 5}, Kind: "bc", Function: "max"}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.results[hash] = huge
	s.mu.Unlock()
	fs.failWrites.Store(true)
	hit, err := s.Submit(spec)
	if err != nil || !hit.CacheHit || hit.State != StateDone {
		t.Fatalf("cache-hit submit = %+v, %v", hit, err)
	}
	fs.failWrites.Store(false)

	// The next persist succeeds and backfills the hit.
	later, err := s.Submit(durableSpec(601, 50))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, later.ID)
	stats := s.Stats()
	s.mu.Lock()
	dirty := len(s.dirty)
	s.mu.Unlock()
	if stats.StoreErrors != 2 || stats.Backfilled != 1 || stats.Degraded || dirty != 0 {
		t.Fatalf("after the backfill: %+v, %d dirty; want 2 store errors, 1 backfilled, 0 dirty", stats, dirty)
	}
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	if v, ok := scanJob(t, st2, hit.ID); !ok || v.State != store.StateDone || v.Spec != nil || v.Result != nil {
		t.Fatalf("oversize job %s replays as ok=%v %+v, want done without spec and result", hit.ID, ok, v)
	}
	if v, ok := scanJob(t, st2, later.ID); !ok || v.State != store.StateDone || len(v.Result) == 0 {
		t.Fatalf("job %s after the oversize backfill: ok=%v %+v", later.ID, ok, v)
	}
}

func TestInterceptPanicIsContained(t *testing.T) {
	var calls atomic.Int64
	s := New(Config{
		Workers: 1,
		Intercept: func(ctx context.Context, jobID string) error {
			calls.Add(1)
			// Stall before the engine starts, as the chaos run_stall
			// channel does.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Millisecond):
				return nil
			}
		},
	})
	defer s.Close()
	j, err := s.Submit(durableSpec(501, 50))
	if err != nil {
		t.Fatal(err)
	}
	j = waitTerminal(t, s, j.ID)
	if j.State != StateDone {
		t.Fatalf("job after stalling intercept = %s (%s), want done", j.State, j.Error)
	}
	if calls.Load() != 1 {
		t.Fatalf("intercept ran %d times, want 1", calls.Load())
	}

	// A reference run without the hook returns the identical result: the
	// intercept may delay a job but never perturb its output.
	c, err := job.Compile(durableSpec(501, 50))
	if err != nil {
		t.Fatal(err)
	}
	want, err := job.Run(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j.Result, job.AppendResult(nil, want)) {
		t.Fatal("intercepted job's result differs from the uninterfered run")
	}

	p := New(Config{
		Workers: 1,
		Intercept: func(ctx context.Context, jobID string) error {
			panic("chaos says hello")
		},
	})
	defer p.Close()
	pj, err := p.Submit(durableSpec(502, 50))
	if err != nil {
		t.Fatal(err)
	}
	pj = waitTerminal(t, p, pj.ID)
	if pj.State != StateFailed {
		t.Fatalf("panicking intercept job = %s, want failed", pj.State)
	}
	if p.Stats().PanicsRecovered != 1 {
		t.Fatalf("panics recovered = %d, want 1", p.Stats().PanicsRecovered)
	}
	if rd := p.Readiness(); rd.Workers != 1 {
		t.Fatalf("worker died with the panic: %+v", rd)
	}
}
