package service

import (
	"context"
	"reflect"
	"testing"
	"time"

	"anonnet/internal/job"
	"anonnet/internal/store"
)

// durableSpec is a checkpointable workload (dynamic outdegree → Push-Sum)
// that runs its full round budget: patience equal to the budget keeps the
// stabilization detector from firing early, so every run is long enough
// to interrupt and its Result is deterministic.
func durableSpec(seed int64, rounds int) job.Spec {
	return job.Spec{
		Graph:     job.GraphSpec{Builder: "randomdyn", N: 8},
		Kind:      "od",
		Function:  "average",
		Seed:      seed,
		MaxRounds: rounds,
		Patience:  rounds,
	}
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestShutdownFlushInterruptsAndRecoverResumes is the service-level
// recovery drill: a daemon is killed mid-batch (graceful shutdown with a
// running job), a second daemon on the same data dir recovers, and every
// job reaches a terminal state with its original ID, spec hash, and the
// exact Result an uninterrupted run produces.
func TestShutdownFlushInterruptsAndRecoverResumes(t *testing.T) {
	const rounds = 8000
	specs := []job.Spec{durableSpec(101, rounds), durableSpec(102, rounds), durableSpec(103, rounds)}

	// Uninterrupted reference results.
	want := make([]*job.Result, len(specs))
	for i, sp := range specs {
		c, err := job.Compile(sp)
		if err != nil {
			t.Fatal(err)
		}
		want[i], err = job.Run(context.Background(), c, nil)
		if err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	st1 := openStore(t, dir)
	// One worker: the batch runs head-of-line, so shutdown catches job 1
	// mid-run and jobs 2–3 still queued.
	s1 := New(Config{Workers: 1, CheckpointEvery: 250, Store: st1})
	batch, err := s1.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(batch.Jobs))
	hashes := make([]string, len(batch.Jobs))
	for i, j := range batch.Jobs {
		ids[i], hashes[i] = j.ID, j.Hash
	}

	// Kill the daemon once the first job is demonstrably mid-run.
	deadline := time.Now().Add(15 * time.Second)
	for s1.Stats().RoundsSimulated < 500 {
		if time.Now().After(deadline) {
			t.Fatal("first job never got going")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := s1.Stats().Interrupted; got != 1 {
		t.Fatalf("interrupted = %d, want 1", got)
	}
	j1, err := s1.Get(ids[0])
	if err != nil || j1.State != StateInterrupted {
		t.Fatalf("job 1 after shutdown: %+v, %v", j1, err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// The second daemon: same data dir, recover, drain.
	st2 := openStore(t, dir)
	defer st2.Close()
	if v, ok := st2.Job(ids[0]); !ok || v.State != store.StateInterrupted || v.Round <= 0 {
		t.Fatalf("persisted view of interrupted job: %+v (ok=%v)", v, ok)
	}
	s2 := New(Config{Workers: 2, CheckpointEvery: 250, Store: st2})
	defer s2.Close()
	n, err := s2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if n != len(specs) {
		t.Fatalf("recovered %d jobs, want %d", n, len(specs))
	}
	for i, id := range ids {
		j := waitState(t, s2, id, StateDone)
		if j.Hash != hashes[i] {
			t.Errorf("job %s hash %s, want original %s", id, j.Hash, hashes[i])
		}
		if !reflect.DeepEqual(j.Result, want[i]) {
			t.Errorf("job %s result %+v diverges from uninterrupted %+v", id, j.Result, want[i])
		}
	}
	// The resumed job really did resume: it re-simulated fewer rounds
	// than the full budget (the checkpoint carried the rest).
	if got := s2.Stats().RoundsSimulated; got >= int64(len(specs)*rounds) {
		t.Errorf("recovery re-simulated %d rounds — resume from checkpoint saved nothing", got)
	}
	// New submissions continue the persisted ID sequence.
	j, err := s2.Submit(durableSpec(104, 100))
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "j000004" {
		t.Errorf("post-recovery ID = %s, want j000004", j.ID)
	}
}

// TestResultServedFromDiskAcrossRestart pins the disk tier: a result
// persisted by one service instance satisfies an identical submission in
// a later instance as a cache hit, without re-running the job.
func TestResultServedFromDiskAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	spec := durableSpec(7, 500)

	st1 := openStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st1})
	j1, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s1, j1.ID, StateDone)
	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := New(Config{Workers: 1, Store: st2})
	defer s2.Close()
	j2, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j2.State != StateDone || !j2.CacheHit {
		t.Fatalf("restarted submit = state %s cacheHit %v, want done via disk tier", j2.State, j2.CacheHit)
	}
	if !reflect.DeepEqual(j2.Result, done.Result) {
		t.Errorf("disk-tier result %+v diverges from original %+v", j2.Result, done.Result)
	}
	if s2.Stats().RoundsSimulated != 0 {
		t.Errorf("disk-tier hit re-simulated %d rounds", s2.Stats().RoundsSimulated)
	}
}

// TestRecoverRejectsUncompilableSpec pins recovery's poison-pill
// handling: a persisted job whose spec no longer compiles is marked
// failed in the log instead of wedging the boot.
func TestRecoverRejectsUncompilableSpec(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.Append(store.Record{
		JobID: "j000001", Hash: "bad", State: store.StateQueued,
		Spec: []byte(`{"graph":{"builder":"moebius","n":4},"kind":"od","function":"average"}`),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	defer st2.Close()
	s := New(Config{Workers: 1, Store: st2})
	defer s.Close()
	n, err := s.Recover()
	if err != nil || n != 0 {
		t.Fatalf("Recover = %d, %v; want 0 jobs and no error", n, err)
	}
	if v, ok := st2.Job("j000001"); !ok || v.State != store.StateFailed || v.Error == "" {
		t.Fatalf("poison job view = %+v (ok=%v), want failed with error", v, ok)
	}
}

// TestCacheHitIDNotReissuedAfterRestart: a job served from the result
// cache is logged like any other, so a restarted daemon continues the ID
// sequence past it instead of handing its ID out again.
func TestCacheHitIDNotReissuedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st1})
	a, err := s1.Submit(durableSpec(11, 100))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, a.ID, StateDone)
	hit, err := s1.Submit(durableSpec(11, 100))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatalf("resubmission %+v is not a cache hit", hit)
	}
	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := New(Config{Workers: 1, Store: st2})
	defer s2.Close()
	b, err := s2.Submit(durableSpec(12, 100))
	if err != nil {
		t.Fatal(err)
	}
	if b.ID == a.ID || b.ID == hit.ID {
		t.Fatalf("post-restart job got ID %s, already issued to %s or %s", b.ID, a.ID, hit.ID)
	}
	if v, ok := st2.Job(hit.ID); !ok || v.State != store.StateDone || len(v.Spec) == 0 || len(v.Result) != 0 {
		t.Fatalf("cache-hit log view %+v (ok=%v), want done with its spec and no result payload", v, ok)
	}
}
