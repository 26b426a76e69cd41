package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anonnet/internal/engine"
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

// logView is one job's records merged in log order: the latest hash,
// state, spec and result, and the last record's error.
type logView struct {
	ID, Hash, State string
	Spec, Result    json.RawMessage
	Error           string
}

// scanJobs folds the log, read with Scan, into one view per job ID in
// first-seen order.
func scanJobs(t testing.TB, st *store.Store) []logView {
	t.Helper()
	var views []logView
	pos := make(map[string]int)
	if err := st.Scan(func(rec store.Record) error {
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
func scanJob(t testing.TB, st *store.Store, id string) (logView, bool) {
	t.Helper()
	for _, v := range scanJobs(t, st) {
		if v.ID == id {
			return v, true
		}
	}
	return logView{}, false
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
	if v, ok := scanJob(t, st2, ids[0]); !ok || v.State != store.StateInterrupted {
		t.Fatalf("persisted view of interrupted job: %+v (ok=%v)", v, ok)
	}
	if blob, err := st2.LatestCheckpoint(hashes[0]); err != nil {
		t.Fatalf("interrupted job's checkpoint: %v", err)
	} else if cp, err := engine.DecodeCheckpoint(blob); err != nil || cp.Round <= 0 {
		t.Fatalf("interrupted job's checkpoint %+v (%v), want a round past 0", cp, err)
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
		if w := job.AppendResult(nil, want[i]); !bytes.Equal(j.Result, w) {
			t.Errorf("job %s result %s diverges from uninterrupted %s", id, j.Result, w)
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

// TestShutdownInterruptsJobThatCannotCheckpoint: a durable shutdown stops
// a job whose algorithm cannot checkpoint (gossip on the flooding kernel)
// at the next round boundary instead of waiting out the grace and
// canceling it. The job ends interrupted, in memory and in the log, with
// no checkpoint blob, and the next boot reruns it from round 0 to the
// uninterrupted result.
func TestShutdownInterruptsJobThatCannotCheckpoint(t *testing.T) {
	const grace = 100 * time.Millisecond
	// A stabilized round on an n=32 ring costs about 1.2 µs (2 vCPUs, 10
	// times that under the race detector), so 250,000 rounds outlive the
	// grace.
	spec := job.Spec{Graph: job.GraphSpec{Builder: "ring", N: 32}, Kind: "bc", Function: "max",
		MaxRounds: 250000, Patience: 250000}
	c, err := job.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st1 := openStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st1})
	j, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(15 * time.Second); s1.Stats().RoundsSimulated < 100; {
		if time.Now().After(deadline) {
			t.Fatal("the job never got going")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v, want the job flushed within the %v grace", err, grace)
	}
	if got, err := s1.Get(j.ID); err != nil || got.State != StateInterrupted {
		t.Fatalf("job after shutdown: %+v, %v; want interrupted", got, err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	if v, ok := scanJob(t, st2, j.ID); !ok || v.State != store.StateInterrupted {
		t.Fatalf("logged job: %+v (ok=%v), want interrupted", v, ok)
	}
	if _, err := st2.LatestCheckpoint(c.Hash); !errors.Is(err, store.ErrNoCheckpoint) {
		t.Fatalf("checkpoint of a job that cannot checkpoint: %v, want ErrNoCheckpoint", err)
	}
	s2 := New(Config{Workers: 1, Store: st2})
	defer s2.Close()
	if n, err := s2.Recover(); err != nil || n != 1 {
		t.Fatalf("recover = %d, %v; want 1 job", n, err)
	}
	got := waitState(t, s2, j.ID, StateDone)
	if rounds := s2.Stats().RoundsSimulated; rounds != int64(spec.MaxRounds) {
		t.Errorf("the rerun simulated %d rounds, want all %d from round 0", rounds, spec.MaxRounds)
	}
	want, err := job.Run(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w := job.AppendResult(nil, want); !bytes.Equal(got.Result, w) {
		t.Errorf("rerun result %s diverges from the uninterrupted %s", got.Result, w)
	}
}

// TestRecoverResumesConcurrentCheckpoint: a data dir written while the
// retired goroutine-per-agent runner still existed holds checkpoints it
// stamped "concurrent" under the spec's hash. A daemon recovering the
// interrupted concurrent:true job finds that blob on disk, resumes it on
// the sharded engine, and finishes with the uninterrupted Result.
func TestRecoverResumesConcurrentCheckpoint(t *testing.T) {
	const rounds = 8000
	spec := durableSpec(105, rounds)
	spec.Concurrent = true
	c, err := job.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := job.Run(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st1 := openStore(t, dir)
	s1 := New(Config{Workers: 1, CheckpointEvery: 250, Store: st1})
	j, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for s1.Stats().RoundsSimulated < 500 {
		if time.Now().After(deadline) {
			t.Fatal("job never got going")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	flushed, err := st1.LatestCheckpoint(j.Hash)
	if err != nil {
		t.Fatal(err)
	}
	fcp, err := engine.DecodeCheckpoint(flushed)
	if err != nil {
		t.Fatal(err)
	}
	round := fcp.Round
	// Overwrite the flushed blob with what the concurrent runner wrote at
	// that round: the sequential snapshot (same core layout, same draw
	// sequence) stamped "concurrent".
	seqSpec := spec
	seqSpec.Concurrent = false
	sc, err := job.Compile(seqSpec)
	if err != nil {
		t.Fatal(err)
	}
	legacy := interruptedAt(t, sc, round)
	cp, err := engine.DecodeCheckpoint(legacy)
	if err != nil {
		t.Fatal(err)
	}
	cp.Engine = "concurrent"
	if legacy, err = cp.Encode(); err != nil {
		t.Fatal(err)
	}
	if err := st1.SaveCheckpoint(j.Hash, legacy); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	if blob, err := st2.LatestCheckpoint(j.Hash); err != nil {
		t.Fatal(err)
	} else if cp, err := engine.DecodeCheckpoint(blob); err != nil || cp.Engine != "concurrent" || cp.Round != round {
		t.Fatalf("on-disk checkpoint %+v (%v), want the concurrent one at round %d", cp, err, round)
	}
	s2 := New(Config{Workers: 1, CheckpointEvery: 250, Store: st2})
	defer s2.Close()
	if n, err := s2.Recover(); err != nil || n != 1 {
		t.Fatalf("recover: %d jobs, %v", n, err)
	}
	got := waitState(t, s2, j.ID, StateDone)
	if w := job.AppendResult(nil, want); !bytes.Equal(got.Result, w) {
		t.Errorf("resumed result %s diverges from uninterrupted %s", got.Result, w)
	}
	if sim := s2.Stats().RoundsSimulated; sim != int64(rounds-round) {
		t.Errorf("recovery simulated %d rounds, want the %d after the checkpoint", sim, rounds-round)
	}
}

// interruptedAt runs c without a service, flushes it when the observer
// sees round, and returns the checkpoint blob that flush saves: what an
// interrupted run of c leaves on disk.
func interruptedAt(t *testing.T, c *job.Compiled, round int) []byte {
	t.Helper()
	b, err := c.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	flush := make(chan struct{}, 1)
	var blob []byte
	_, err = job.RunCheckpointed(context.Background(), b, func(r int, _ engine.Runner) {
		if r == round {
			flush <- struct{}{}
		}
	}, job.CheckpointConfig{Flush: flush, Save: func(p []byte) error { blob = p; return nil }})
	if !errors.Is(err, engine.ErrInterrupted) {
		t.Fatalf("run error = %v, want ErrInterrupted", err)
	}
	return blob
}

// listingFS is a store.FS that counts directory listings and renames, and
// each read and remove of a file under ckpt/.
type listingFS struct {
	store.FS
	readDirs, renames atomic.Int64

	mu   sync.Mutex
	ckpt map[string]int // "read <name>" or "remove <name>" → calls
}

func (f *listingFS) ReadDir(path string) ([]os.DirEntry, error) {
	f.readDirs.Add(1)
	return f.FS.ReadDir(path)
}

func (f *listingFS) Rename(oldpath, newpath string) error {
	f.renames.Add(1)
	return f.FS.Rename(oldpath, newpath)
}

func (f *listingFS) ReadFile(path string) ([]byte, error) {
	f.noteCkpt("read", path)
	return f.FS.ReadFile(path)
}

func (f *listingFS) Remove(path string) error {
	f.noteCkpt("remove", path)
	return f.FS.Remove(path)
}

func (f *listingFS) noteCkpt(op, path string) {
	if filepath.Base(filepath.Dir(path)) != "ckpt" {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ckpt == nil {
		f.ckpt = make(map[string]int)
	}
	f.ckpt[op+" "+filepath.Base(path)]++
}

// TestJobPathListsNoDirectory pins that a job's checkpoint is found,
// saved and dropped by name: once Open has replayed the data dir, neither
// a job that checkpoints every 5 of its 40 rounds nor a gossip job that
// never saves lists a directory. A hash with no blob is answered from the
// store's set of blob names, so the gossip job reads and removes no file
// under ckpt/, and the checkpointing job reads none before its first save
// and drops its blob exactly once.
func TestJobPathListsNoDirectory(t *testing.T) {
	fs := &listingFS{FS: store.OS()}
	st, err := store.Open(t.TempDir(), store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	opened := fs.readDirs.Load()
	s := New(Config{Workers: 1, CheckpointEvery: 5, Store: st})
	defer s.Close()
	batch, err := s.SubmitBatch([]job.Spec{durableSpec(7, 40),
		{Graph: job.GraphSpec{Builder: "ring", N: 16}, Kind: "bc", Function: "max", MaxRounds: 2, Patience: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range batch.Jobs {
		waitState(t, s, j.ID, StateDone)
	}
	if fs.renames.Load() == 0 {
		t.Fatal("the checkpointing job saved no checkpoint")
	}
	if n := fs.readDirs.Load() - opened; n != 0 {
		t.Errorf("the jobs listed a directory %d times, want 0", n)
	}
	if n := st.Stats().Checkpoints; n != 0 {
		t.Errorf("store counts %d checkpoints after both jobs finished, want 0", n)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	saver, gossip := batch.Jobs[0].Hash+".ckpt", batch.Jobs[1].Hash+".ckpt"
	if n := fs.ckpt["read "+gossip] + fs.ckpt["remove "+gossip]; n != 0 {
		t.Errorf("the gossip job, which never saves, read or removed its blob %d times, want 0", n)
	}
	if n := fs.ckpt["read "+saver]; n != 0 {
		t.Errorf("the checkpointing job read its blob %d times before saving one, want 0", n)
	}
	if n := fs.ckpt["remove "+saver]; n != 1 {
		t.Errorf("the checkpointing job's blob was removed %d times, want once", n)
	}
	if len(fs.ckpt) != 1 {
		t.Errorf("calls under ckpt/: %v, want only the one remove", fs.ckpt)
	}
}

// TestResultServedFromDiskAcrossRestart pins the disk tier: a result
// persisted by one service instance satisfies an identical submission in
// a later instance, whose result index starts empty, as a cache hit,
// without re-running the job. The subtest keeps the name of the
// in-memory tier it was written for: the disk hit is promoted into the
// result index, as the LRU promoted it.
func TestResultServedFromDiskAcrossRestart(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
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
		if n := s2.Stats().CacheEntries; n != 0 {
			t.Fatalf("restarted result index holds %d hashes before any submit, want 0", n)
		}
		j2, err := s2.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if j2.State != StateDone || !j2.CacheHit {
			t.Fatalf("restarted submit = state %s cacheHit %v, want done via disk tier", j2.State, j2.CacheHit)
		}
		if !bytes.Equal(j2.Result, done.Result) {
			t.Errorf("disk-tier result %s diverges from original %s", j2.Result, done.Result)
		}
		if s2.Stats().RoundsSimulated != 0 {
			t.Errorf("disk-tier hit re-simulated %d rounds", s2.Stats().RoundsSimulated)
		}
		if n := s2.Stats().CacheEntries; n != 1 {
			t.Errorf("result index holds %d hashes after the disk hit, want 1", n)
		}
	})
}

// TestDiskHitRefusesForeignResult: a done record whose result payload is
// not an encoded Result — here JSON that decodes into an empty Result,
// since unknown fields are ignored — is no disk-tier hit. The job runs
// and ends with the result job.Run gives.
func TestDiskHitRefusesForeignResult(t *testing.T) {
	spec := durableSpec(9, 300)
	c, err := job.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := job.Run(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t, t.TempDir())
	defer st.Close()
	if err := st.Append(store.Record{JobID: "j000001", Hash: c.Hash, State: store.StateDone,
		Spec: c.SpecJSON, Result: json.RawMessage(`{"r":1}`)}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Store: st})
	defer s.Close()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.CacheHit {
		t.Fatalf("foreign disk-tier payload served as a cache hit: %s", j.Result)
	}
	done := waitState(t, s, j.ID, StateDone)
	if w := job.AppendResult(nil, want); !bytes.Equal(done.Result, w) {
		t.Errorf("result %s, want job.Run's %s", done.Result, w)
	}
}

// TestRecoverRejectsUncompilableSpec pins recovery's poison-pill
// handling: a persisted job whose spec no longer compiles is marked
// failed in the log instead of wedging the boot, and its checkpoint blob
// is dropped with it.
func TestRecoverRejectsUncompilableSpec(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.Append(store.Record{
		JobID: "j000001", Hash: "bad", State: store.StateQueued,
		Spec: []byte(`{"graph":{"builder":"moebius","n":4},"kind":"od","function":"average"}`),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveCheckpoint("bad", []byte("blob")); err != nil {
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
	if v, ok := scanJob(t, st2, "j000001"); !ok || v.State != store.StateFailed || v.Error == "" {
		t.Fatalf("poison job view = %+v (ok=%v), want failed with error", v, ok)
	}
	if _, err := st2.LatestCheckpoint("bad"); !errors.Is(err, store.ErrNoCheckpoint) {
		t.Fatalf("poison job's checkpoint after Recover: %v, want ErrNoCheckpoint", err)
	}
	if n := st2.Stats().Checkpoints; n != 0 {
		t.Fatalf("store counts %d checkpoints after Recover, want 0", n)
	}
}

// TestRecoverRejectsForeignSpec: a logged spec carrying a field this
// build does not know is refused as POST /v1/jobs refuses it, even though
// the rest of it compiles to the logged hash: the job is marked failed in
// the log and its checkpoint blob dropped, instead of resuming without the
// field under its old ID.
func TestRecoverRejectsForeignSpec(t *testing.T) {
	spec := job.Spec{Graph: job.GraphSpec{Builder: "ring", N: 8}, Kind: "od", Function: "average"}
	c, err := job.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	foreign := []byte(`{"graph":{"builder":"ring","n":8},"kind":"od","function":"average","future_field":7}`)
	if _, err := job.Decode(foreign); err == nil {
		t.Fatal("job.Decode accepted the foreign field")
	}
	recoverRejects(t, c.Hash, foreign, "future_field")
}

// TestRecoverRejectsHashMismatch: a logged spec that compiles to another
// hash than the one logged with it is another computation, so its job is
// marked failed in the log, and the blob under the logged hash dropped,
// instead of running under its old ID and the new hash.
func TestRecoverRejectsHashMismatch(t *testing.T) {
	const logged = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	spec := []byte(`{"graph":{"builder":"ring","n":8},"kind":"od","function":"average"}`)
	recoverRejects(t, logged, spec, logged)
}

// recoverRejects logs one queued job j000001 with spec under hash, saves a
// checkpoint blob under hash, and requires Recover to register nothing,
// log the job failed with an error containing want, and drop the blob.
func recoverRejects(t *testing.T, hash string, spec []byte, want string) {
	t.Helper()
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.Append(store.Record{JobID: "j000001", Hash: hash, State: store.StateQueued, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveCheckpoint(hash, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	defer st2.Close()
	s := New(Config{Workers: 1, Store: st2})
	defer s.Close()
	if n, err := s.Recover(); err != nil || n != 0 {
		t.Fatalf("Recover = %d, %v; want 0 jobs and no error", n, err)
	}
	if _, err := s.Get("j000001"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(j000001) = %v, want ErrNotFound: the job must not be registered", err)
	}
	if v, ok := scanJob(t, st2, "j000001"); !ok || v.State != store.StateFailed || v.Hash != hash ||
		!strings.Contains(v.Error, want) {
		t.Fatalf("job view = %+v (ok=%v), want failed under %s with an error naming %q", v, ok, hash, want)
	}
	if _, err := st2.LatestCheckpoint(hash); !errors.Is(err, store.ErrNoCheckpoint) {
		t.Fatalf("checkpoint under the logged hash after Recover: %v, want ErrNoCheckpoint", err)
	}
}

// TestRecoveredDedupBatchRunsOnce: a 16-member dedup batch of one durable
// spec, shut down mid-run, resumes as one execution from the hash's
// flushed checkpoint. It runs only the remaining rounds, logs one result
// payload, and every member ends with job.Run's result. Earlier builds
// resumed each member as its own execution, and once the first finished
// and dropped the hash's blob, the rest restarted from round 0.
func TestRecoveredDedupBatchRunsOnce(t *testing.T) {
	const rounds, members = 3000, 16
	spec := durableSpec(21, rounds)
	c, err := job.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := job.Run(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st1 := openStore(t, dir)
	s1 := New(Config{Workers: 1, CheckpointEvery: 250, Store: st1})
	specs := make([]job.Spec, members)
	for i := range specs {
		specs[i] = spec
	}
	batch, err := s1.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for s1.Stats().RoundsSimulated < 300 {
		if time.Now().After(deadline) {
			t.Fatal("the batch's execution never got going")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := s1.Stats().Interrupted; got != members {
		t.Fatalf("interrupted = %d, want all %d members", got, members)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	blob, err := st2.LatestCheckpoint(c.Hash)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := engine.DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 2, CheckpointEvery: 250, Store: st2})
	defer s2.Close()
	if n, err := s2.Recover(); err != nil || n != members {
		t.Fatalf("Recover = %d, %v; want %d jobs", n, err, members)
	}
	w := job.AppendResult(nil, want)
	for _, j := range batch.Jobs {
		if got := waitState(t, s2, j.ID, StateDone); !bytes.Equal(got.Result, w) {
			t.Fatalf("member %s result %s, want job.Run's %s", j.ID, got.Result, w)
		}
	}
	if sim := s2.Stats().RoundsSimulated; sim != int64(rounds-cp.Round) {
		t.Errorf("recovery simulated %d rounds, want the %d after the flushed checkpoint's round %d", sim, rounds-cp.Round, cp.Round)
	}
	payloads := 0
	if err := st2.Scan(func(rec store.Record) error {
		if rec.Hash == c.Hash && len(rec.Result) > 0 {
			payloads++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if payloads != 1 {
		t.Errorf("the log holds %d result payloads for the hash, want 1", payloads)
	}
}

// TestRecoverServesLoggedResult: a pending job whose hash already has a
// logged result (an earlier job wrote it) recovers born done, as a cache
// hit with that result, without running; its done record carries no
// result of its own, and the hash's checkpoint blob, a resume point no
// job will read, is dropped.
func TestRecoverServesLoggedResult(t *testing.T) {
	spec := durableSpec(31, 300)
	c, err := job.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	result := job.AppendResult(nil, res)
	dir := t.TempDir()
	st1 := openStore(t, dir)
	for _, rec := range []store.Record{
		{JobID: "j000001", Hash: c.Hash, State: store.StateQueued, Spec: c.SpecJSON},
		{JobID: "j000001", Hash: c.Hash, State: store.StateDone, Result: result},
		{JobID: "j000002", Hash: c.Hash, State: store.StateQueued, Spec: c.SpecJSON},
	} {
		if err := st1.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st1.SaveCheckpoint(c.Hash, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	s := New(Config{Workers: 1, Store: st2})
	defer s.Close()
	if n, err := s.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v; want 1 job", n, err)
	}
	j, err := s.Get("j000002")
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateDone || !j.CacheHit || !bytes.Equal(j.Result, result) {
		t.Fatalf("recovered j000002: state %s, cache hit %v, result %s; want done from j000001's result", j.State, j.CacheHit, j.Result)
	}
	if st := s.Stats(); st.RoundsSimulated != 0 || st.Recovered != 1 || st.CacheHits != 0 {
		t.Fatalf("stats %+v, want 0 rounds, 1 recovered, 0 cache hits (hits count submissions)", st)
	}
	if v, ok := scanJob(t, st2, "j000002"); !ok || v.State != store.StateDone || len(v.Result) != 0 {
		t.Fatalf("j000002's log view %+v (ok=%v), want done with no result payload", v, ok)
	}
	if _, err := st2.LatestCheckpoint(c.Hash); !errors.Is(err, store.ErrNoCheckpoint) || st2.Stats().Checkpoints != 0 {
		t.Fatalf("the served hash's checkpoint after Recover: %v, %d blobs; want ErrNoCheckpoint and none", err, st2.Stats().Checkpoints)
	}
}

// TestRecoverExpandedSpecResumes: a data dir whose log holds a spec with
// its default inputs written out — what builds that kept the expanded
// canonical spec logged — recovers unchanged. The interrupted job comes
// back under its ID and hash, keeps its spec without the inputs, and
// resumes from the hash's checkpoint blob; after another restart, the
// same spec submitted in that kept form is a cache hit on the logged
// result.
func TestRecoverExpandedSpecResumes(t *testing.T) {
	const rounds = 2000
	c, err := job.Compile(durableSpec(41, rounds))
	if err != nil {
		t.Fatal(err)
	}
	want, err := job.Run(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := json.Marshal(c.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(expanded, c.SpecJSON) || !bytes.Contains(expanded, []byte(`"values"`)) {
		t.Fatalf("expanded spec %s, kept spec %s: want the inputs in the first only", expanded, c.SpecJSON)
	}
	blob := interruptedAt(t, c, rounds/3)
	cp, err := engine.DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st1 := openStore(t, dir)
	for _, rec := range []store.Record{
		{JobID: "j000001", Hash: c.Hash, State: store.StateQueued, Spec: expanded},
		{JobID: "j000001", Hash: c.Hash, State: store.StateRunning},
		{JobID: "j000001", Hash: c.Hash, State: store.StateInterrupted},
	} {
		if err := st1.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st1.SaveCheckpoint(c.Hash, blob); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	s2 := New(Config{Workers: 1, Store: st2})
	if n, err := s2.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v; want 1 job", n, err)
	}
	got := waitState(t, s2, "j000001", StateDone)
	if got.Hash != c.Hash || !bytes.Equal(got.Spec, c.SpecJSON) {
		t.Fatalf("recovered job: hash %s, spec %s; want %s, %s", got.Hash, got.Spec, c.Hash, c.SpecJSON)
	}
	if w := job.AppendResult(nil, want); !bytes.Equal(got.Result, w) {
		t.Fatalf("resumed result %s diverges from uninterrupted %s", got.Result, w)
	}
	if sim := s2.Stats().RoundsSimulated; sim != int64(rounds-cp.Round) {
		t.Fatalf("recovery simulated %d rounds, want the %d after the checkpoint", sim, rounds-cp.Round)
	}
	s2.Close()
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	st3 := openStore(t, dir)
	defer st3.Close()
	s3 := New(Config{Workers: 1, Store: st3})
	defer s3.Close()
	kept, err := job.Decode(c.SpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := s3.Submit(kept)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.Hash != c.Hash || !bytes.Equal(hit.Result, got.Result) {
		t.Fatalf("kept-form submission: cache hit %v, hash %s, result %s; want a hit on %s with the logged result", hit.CacheHit, hit.Hash, hit.Result, c.Hash)
	}
	if sim := s3.Stats().RoundsSimulated; sim != 0 {
		t.Fatalf("the cache hit simulated %d rounds", sim)
	}
}

// holdRuns is an Intercept that parks every run until release
// closes or the run is canceled.
func holdRuns(release <-chan struct{}) func(context.Context, string) error {
	return func(ctx context.Context, _ string) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// TestRecoverMoreJobsThanQueueDepth: a restart recovers every pending job,
// whatever the queue depth. A crash leaves three 3-member dedup batches
// pending behind a queue depth of 2, and their three hashes recover as
// three executions, one more than the queue depth. Recover registers all
// nine jobs, admission refuses new work while the backlog exceeds the
// depth, and every job ends done under its original ID. Earlier builds
// failed Recover with ErrQueueFull, which the daemon treats as fatal at
// boot.
func TestRecoverMoreJobsThanQueueDepth(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	s1 := New(Config{Workers: 1, QueueDepth: 2, Store: st1, Intercept: holdRuns(make(chan struct{}))})
	crash := func() {
		s1.CancelAll() // unpark the held run, so Close returns
		s1.Close()
	}
	defer crash()
	var ids []string
	for b := 0; b < 3; b++ {
		sp := durableSpec(int64(700+b), 50)
		batch, err := s1.SubmitBatch([]job.Spec{sp, sp, sp})
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		for _, j := range batch.Jobs {
			ids = append(ids, j.ID)
		}
		if b == 0 {
			// The first execution leaves the queue before the next two
			// batches fill it.
			waitState(t, s1, batch.Jobs[0].ID, StateRunning)
		}
	}
	// The crash: the log ends with three jobs running and six queued.
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	crash()

	st2 := openStore(t, dir)
	defer st2.Close()
	release := make(chan struct{})
	s2 := New(Config{Workers: 1, QueueDepth: 2, Store: st2, Intercept: holdRuns(release)})
	defer s2.Close()
	defer s2.CancelAll() // a failed check must not leave a run parked
	if n, err := s2.Recover(); err != nil || n != len(ids) {
		t.Fatalf("Recover = %d, %v; want all %d pending jobs", n, err, len(ids))
	}
	if _, err := s2.Submit(durableSpec(799, 50)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit during the recovered backlog = %v, want ErrQueueFull", err)
	}
	if rd := s2.Readiness(); rd.Ready || rd.Reason != "queue full" {
		t.Fatalf("readiness during the recovered backlog = %+v, want not ready: queue full", rd)
	}
	close(release)
	for _, id := range ids {
		if j := waitTerminal(t, s2, id); j.State != StateDone {
			t.Fatalf("recovered job %s ended %q (%s), want done", id, j.State, j.Error)
		}
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
	if v, ok := scanJob(t, st2, hit.ID); !ok || v.State != store.StateDone || len(v.Spec) == 0 || len(v.Result) != 0 {
		t.Fatalf("cache-hit log view %+v (ok=%v), want done with its spec and no result payload", v, ok)
	}
}
