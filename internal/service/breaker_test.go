package service

// Circuit-breaker coverage: the service must survive a store that goes
// dark — trip to degraded in-memory mode after K consecutive failed
// persists, keep running jobs and serving results, report degraded:true
// on readiness while staying Ready, and backfill the log once a half-open
// probe lands.

import (
	"context"
	"errors"
	"os"
	"reflect"
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

func TestBreakerTripsDegradedModeAndBackfills(t *testing.T) {
	dir := t.TempDir()
	fs := newSwitchFS()
	st := openSwitchStore(t, dir, fs, false)
	s := New(Config{
		Workers:          1,
		Store:            st,
		BreakerThreshold: 3,
		BreakerCooldown:  30 * time.Millisecond,
		CheckpointEvery:  50,
	})

	// A healthy warm-up job proves the log works, then the disk goes dark.
	warm, err := s.Submit(durableSpec(301, 300))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, warm.ID)
	fs.failWrites.Store(true)

	// Each failed persist counts toward the trip; three dark submissions
	// are more than enough (queued + running + done records all fail).
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
	stats := s.Stats()
	if stats.BreakerTrips != 1 || !stats.Degraded {
		t.Fatalf("stats after dark stretch: trips=%d degraded=%v, want 1/true", stats.BreakerTrips, stats.Degraded)
	}
	if stats.DegradedDropped == 0 {
		t.Fatal("no appends dropped while degraded — breaker never actually opened")
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

	// The disk heals; after the cooldown the next persist is the half-open
	// probe, and success must flush the dirty backlog.
	fs.failWrites.Store(false)
	time.Sleep(50 * time.Millisecond)
	probe, err := s.Submit(durableSpec(320, 300))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, probe.ID)
	stats = s.Stats()
	if stats.Degraded {
		t.Fatalf("still degraded after successful probe: %+v", stats)
	}
	if stats.Backfilled < int64(len(dark)) {
		t.Fatalf("backfilled %d jobs, want at least the %d dark ones", stats.Backfilled, len(dark))
	}
	rd = s.Readiness()
	if !rd.Ready || rd.Degraded {
		t.Fatalf("readiness after recovery = %+v, want Ready && !Degraded", rd)
	}
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
		v, ok := st2.Job(j.ID)
		if !ok || v.State != store.StateDone {
			t.Fatalf("job %s after backfill: ok=%v state=%q, want done", j.ID, ok, v.State)
		}
		if len(v.Result) == 0 {
			t.Fatalf("job %s backfilled without a result", j.ID)
		}
	}
	if got := len(st2.Jobs()); got != len(all) {
		t.Fatalf("log holds %d jobs, want %d (no losses, no duplicates)", got, len(all))
	}
}

func TestBreakerSyncFailuresCountedButNotDirty(t *testing.T) {
	dir := t.TempDir()
	fs := newSwitchFS()
	st := openSwitchStore(t, dir, fs, true)
	s := New(Config{Workers: 1, Store: st, BreakerThreshold: -1})

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
	if stats.Degraded || stats.BreakerTrips != 0 {
		t.Fatalf("breaker moved despite threshold -1: %+v", stats)
	}
	s.Close()
	st.Close()

	// ErrSyncFailed appends reached the file: everything replays without a
	// backfill having ever run.
	st2 := openStore(t, dir)
	defer st2.Close()
	if v, ok := st2.Job(j.ID); !ok || v.State != store.StateDone {
		t.Fatalf("sync-failed records did not replay: ok=%v %+v", ok, v)
	}
}

func TestInterceptTransientRetriesAndPanicIsContained(t *testing.T) {
	var calls atomic.Int64
	s := New(Config{
		Workers:    1,
		MaxRetries: 2,
		RetryBase:  time.Millisecond,
		Intercept: func(ctx context.Context, jobID string, attempt int) error {
			calls.Add(1)
			if attempt == 0 {
				return ErrTransient
			}
			return nil
		},
	})
	defer s.Close()
	j, err := s.Submit(durableSpec(501, 50))
	if err != nil {
		t.Fatal(err)
	}
	j = waitTerminal(t, s, j.ID)
	if j.State != StateDone {
		t.Fatalf("job after transient intercept = %s (%s), want done", j.State, j.Error)
	}
	if got := s.Stats().Retries; got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	if calls.Load() != 2 {
		t.Fatalf("intercept ran %d times, want 2 (attempt 0 and 1)", calls.Load())
	}

	// A reference run without the hook returns the identical result: the
	// intercept may delay or retry a job but never perturb its output.
	c, err := job.Compile(durableSpec(501, 50))
	if err != nil {
		t.Fatal(err)
	}
	want, err := job.Run(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j.Result, want) {
		t.Fatal("intercepted job's result differs from the uninterfered run")
	}

	p := New(Config{
		Workers: 1,
		Intercept: func(ctx context.Context, jobID string, attempt int) error {
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
