package service

// Single-flight dedup lifecycle coverage: followers attach to queued and
// running leaders, share the one execution's result / failure / panic,
// detach individually under Cancel, and keep the execution alive until
// the last interested member lets go. The durable composition (the
// result payload is persisted exactly once, and recovery joins identical
// pending jobs into one execution again) is in sweep_test.go.

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"anonnet/internal/job"
)

// gate is an Intercept hook that blocks each attempt until released (or
// its context dies), so tests can hold an execution mid-flight while
// duplicates join and leave it.
type gate struct {
	mu    sync.Mutex
	calls int
	ch    chan struct{}
	// fail, when set, fails the attempt instead of running the job.
	fail error
	// boom, when set, panics instead of running the job.
	boom string
}

func newGate() *gate { return &gate{ch: make(chan struct{}, 64)} }

func (g *gate) release(n int) {
	for i := 0; i < n; i++ {
		g.ch <- struct{}{}
	}
}

func (g *gate) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls
}

// waitHeld waits until n attempts have entered the gate.
func (g *gate) waitHeld(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for g.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d attempts reached the gate", g.count(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (g *gate) intercept(ctx context.Context, jobID string) error {
	g.mu.Lock()
	g.calls++
	g.mu.Unlock()
	select {
	case <-g.ch:
	case <-ctx.Done():
		return ctx.Err()
	}
	if g.boom != "" {
		panic(g.boom)
	}
	return g.fail
}

func TestDedupFollowerSharesRunningLeader(t *testing.T) {
	g := newGate()
	s := New(Config{Workers: 1, Intercept: g.intercept})
	defer s.Close()

	lead, err := s.Submit(ringSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, lead.ID, StateRunning)

	fol, err := s.Submit(ringSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if fol.DedupOf != lead.ID {
		t.Fatalf("follower DedupOf = %q, want leader %s", fol.DedupOf, lead.ID)
	}
	if fol.State != StateRunning {
		t.Fatalf("follower attached to a running leader reports %q, want running", fol.State)
	}
	if fol.CacheHit {
		t.Fatal("a dedup follower is not a cache hit")
	}
	if st := s.Stats(); st.DedupCoalesced != 1 {
		t.Fatalf("DedupCoalesced = %d, want 1", st.DedupCoalesced)
	}

	fw, fstop, err := s.Watch(fol.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer fstop()

	g.release(1)
	a := waitTerminal(t, s, lead.ID)
	b := waitTerminal(t, s, fol.ID)
	if a.State != StateDone || b.State != StateDone {
		t.Fatalf("states %q / %q, want done / done", a.State, b.State)
	}
	if len(a.Result) == 0 || !bytes.Equal(a.Result, b.Result) {
		t.Fatalf("results diverge:\n%s\n%s", a.Result, b.Result)
	}
	if got := g.count(); got != 1 {
		t.Fatalf("execution ran %d times for 2 submissions, want 1", got)
	}
	if st := s.Stats(); st.Completed != 2 {
		t.Fatalf("Completed = %d, want 2 (one per client job)", st.Completed)
	}
	// The follower's watch stream got its own terminal event.
	sawDone := false
	for ev := range fw {
		if ev.Done {
			sawDone = true
			if ev.JobID != fol.ID || ev.State != StateDone {
				t.Fatalf("follower terminal event %+v", ev)
			}
		}
	}
	if !sawDone {
		t.Fatal("follower stream closed without a terminal event")
	}
}

func TestDedupFollowerOfQueuedLeader(t *testing.T) {
	g := newGate()
	s := New(Config{Workers: 1, Intercept: g.intercept})
	defer s.Close()

	// Occupy the only worker so the leader stays queued.
	blocker, err := s.Submit(ringSpec(99))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateRunning)

	lead, err := s.Submit(ringSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	fol, err := s.Submit(ringSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if fol.DedupOf != lead.ID || fol.State != StateQueued {
		t.Fatalf("follower %+v, want queued follower of %s", fol, lead.ID)
	}

	g.release(3)
	waitTerminal(t, s, blocker.ID)
	if j := waitTerminal(t, s, lead.ID); j.State != StateDone {
		t.Fatalf("leader ended %q", j.State)
	}
	if j := waitTerminal(t, s, fol.ID); j.State != StateDone || j.Result == nil {
		t.Fatalf("follower ended %q with result %s", j.State, j.Result)
	}
	if got := g.count(); got != 2 {
		t.Fatalf("execution ran %d times, want 2 (blocker + deduped pair)", got)
	}
}

func TestDedupLeaderFailurePropagates(t *testing.T) {
	g := newGate()
	g.fail = errors.New("disk caught fire")
	s := New(Config{Workers: 1, Intercept: g.intercept})
	defer s.Close()

	lead, _ := s.Submit(ringSpec(5))
	waitState(t, s, lead.ID, StateRunning)
	fol, _ := s.Submit(ringSpec(5))

	g.release(1)
	a := waitTerminal(t, s, lead.ID)
	b := waitTerminal(t, s, fol.ID)
	if a.State != StateFailed || b.State != StateFailed {
		t.Fatalf("states %q / %q, want failed / failed", a.State, b.State)
	}
	if a.Error != b.Error || !strings.Contains(b.Error, "disk caught fire") {
		t.Fatalf("errors %q / %q", a.Error, b.Error)
	}
	if st := s.Stats(); st.Failed != 2 {
		t.Fatalf("Failed = %d, want 2", st.Failed)
	}
	_ = fol
}

func TestDedupLeaderPanicPropagates(t *testing.T) {
	g := newGate()
	g.boom = "agent factory exploded"
	s := New(Config{Workers: 1, Intercept: g.intercept})
	defer s.Close()

	lead, _ := s.Submit(ringSpec(5))
	waitState(t, s, lead.ID, StateRunning)
	fol, _ := s.Submit(ringSpec(5))

	g.release(1)
	a := waitTerminal(t, s, lead.ID)
	b := waitTerminal(t, s, fol.ID)
	if a.State != StateFailed || b.State != StateFailed {
		t.Fatalf("states %q / %q, want failed / failed", a.State, b.State)
	}
	if !strings.Contains(b.Error, "panicked") || !strings.Contains(b.Error, "agent factory exploded") {
		t.Fatalf("follower error %q does not carry the panic", b.Error)
	}
}

func TestDedupCancelFollowerLeavesLeaderRunning(t *testing.T) {
	g := newGate()
	s := New(Config{Workers: 1, Intercept: g.intercept})
	defer s.Close()

	lead, _ := s.Submit(ringSpec(5))
	waitState(t, s, lead.ID, StateRunning)
	fol, _ := s.Submit(ringSpec(5))

	c, err := s.Cancel(fol.ID)
	if err != nil {
		t.Fatal(err)
	}
	if c.State != StateCanceled {
		t.Fatalf("canceled follower reports %q", c.State)
	}
	if j, _ := s.Get(lead.ID); j.State != StateRunning {
		t.Fatalf("leader went %q after its follower detached, want running", j.State)
	}

	g.release(1)
	if j := waitTerminal(t, s, lead.ID); j.State != StateDone {
		t.Fatalf("leader ended %q, want done", j.State)
	}
	// The canceled follower stays canceled: it left the execution before
	// it settled.
	if j, _ := s.Get(fol.ID); j.State != StateCanceled || j.Result != nil {
		t.Fatalf("follower after leader's completion: %+v", j)
	}
}

func TestDedupCancelLeaderDetachesButRunsOn(t *testing.T) {
	g := newGate()
	s := New(Config{Workers: 1, Intercept: g.intercept})
	defer s.Close()

	lead, _ := s.Submit(ringSpec(5))
	waitState(t, s, lead.ID, StateRunning)
	fol, _ := s.Submit(ringSpec(5))

	c, err := s.Cancel(lead.ID)
	if err != nil {
		t.Fatal(err)
	}
	if c.State != StateCanceled {
		t.Fatalf("canceled leader reports %q to its client", c.State)
	}
	// The execution must keep going for the follower: the gate has not
	// been released yet, so a stopped execution would end it canceled.
	g.release(1)
	if j := waitTerminal(t, s, fol.ID); j.State != StateDone || j.Result == nil {
		t.Fatalf("follower of detached leader ended %q (result %s), want done", j.State, j.Result)
	}
	// The leader's client-facing state never flipped back.
	if j, _ := s.Get(lead.ID); j.State != StateCanceled {
		t.Fatalf("detached leader reports %q, want canceled", j.State)
	}
	// A fresh identical submission starts a new execution (the detached
	// leader left the single-flight index)... unless the result index
	// serves it first, which is exactly as good.
	again, err := s.Submit(ringSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if again.DedupOf != "" {
		t.Fatalf("new submission attached to detached leader %s", again.DedupOf)
	}
}

func TestDedupLastFollowerDetachStopsExecution(t *testing.T) {
	g := newGate()
	s := New(Config{Workers: 1, Intercept: g.intercept})
	defer s.Close()

	lead, _ := s.Submit(ringSpec(5))
	waitState(t, s, lead.ID, StateRunning)
	fol, _ := s.Submit(ringSpec(5))

	s.Cancel(lead.ID) // detach: follower keeps it alive
	s.Cancel(fol.ID)  // last member gone: the execution is orphaned

	// The gate was never released; only a context cancel can end it.
	deadline := time.Now().Add(15 * time.Second)
	for g.count() == 0 || s.Stats().Running > 0 {
		if time.Now().After(deadline) {
			t.Fatal("orphaned execution still running after last follower detached")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if j, _ := s.Get(lead.ID); j.State != StateCanceled {
		t.Fatalf("leader %q, want canceled", j.State)
	}
	if j, _ := s.Get(fol.ID); j.State != StateCanceled {
		t.Fatalf("follower %q, want canceled", j.State)
	}
}

func TestDedupCancelQueuedLeaderWithFollower(t *testing.T) {
	g := newGate()
	s := New(Config{Workers: 1, Intercept: g.intercept})
	defer s.Close()

	blocker, _ := s.Submit(ringSpec(99))
	waitState(t, s, blocker.ID, StateRunning)

	lead, _ := s.Submit(ringSpec(5))
	fol, _ := s.Submit(ringSpec(5))

	// Cancel the queued leader: it detaches (the follower still wants the
	// run), then cancel the follower too — now nobody does, and the pool
	// must skip the entry instead of running it.
	s.Cancel(lead.ID)
	if j, _ := s.Get(fol.ID); j.State != StateQueued {
		t.Fatalf("follower went %q when its queued leader detached", j.State)
	}
	s.Cancel(fol.ID)

	g.release(1)
	waitTerminal(t, s, blocker.ID)
	waitTerminal(t, s, lead.ID)
	waitTerminal(t, s, fol.ID)
	if got := g.count(); got != 1 {
		t.Fatalf("execution ran %d times, want 1 (the blocker only)", got)
	}
}

// TestFinishedJobRetention: a finished job keeps its spec and result only
// as encoded bytes, and a job that joined an execution shares that
// execution's, so a durable service that finished four 64-member batches
// of n=10⁴ rings retains per job its share of two encodings and little
// else: a few KB when each batch's members are identical (dedup), and its
// own spec and result bytes plus a few KB when every member is its own
// execution (distinct). It measures the process heap, so it must not run
// in parallel with other tests.
func TestFinishedJobRetention(t *testing.T) {
	for _, tc := range []struct {
		name     string
		distinct bool // every member its own seed, so its own execution
	}{{"dedup", false}, {"distinct", true}} {
		t.Run(tc.name, func(t *testing.T) {
			const batches = 4
			st := openStore(t, t.TempDir())
			defer st.Close()
			// A 1-byte topology budget evicts the ring as soon as each run
			// releases it, so the heap keeps only what the jobs themselves
			// hold.
			s := New(Config{Workers: 1, Store: st, TopoCacheBytes: 1})
			defer s.Close()

			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			before := ms.HeapAlloc
			var encoded int64 // the distinct members' spec and result bytes
			for batch := int64(0); batch < batches; batch++ {
				specs := make([]job.Spec, MaxBatchSize)
				for i := range specs {
					seed := batch + 1
					if tc.distinct {
						seed = batch*MaxBatchSize + int64(i) + 1
					}
					specs[i] = job.Spec{Graph: job.GraphSpec{Builder: "ring", N: 10_000}, Kind: "bc",
						Function: "max", Seed: seed, MaxRounds: 2, Patience: 2}
				}
				b, err := s.SubmitBatch(specs)
				if err != nil {
					t.Fatal(err)
				}
				for _, j := range b.Jobs {
					got := waitTerminal(t, s, j.ID)
					if got.State != StateDone {
						t.Fatalf("job %s ended %q (err %q)", j.ID, got.State, got.Error)
					}
					if tc.distinct {
						encoded += int64(len(got.Spec) + len(got.Result))
					}
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			const jobs = batches * MaxBatchSize
			perJob := (int64(ms.HeapAlloc) - int64(before)) / jobs
			bound := encoded/jobs + 8<<10
			t.Logf("retained %d B per finished job (bound %d B)", perJob, bound)
			if perJob > bound {
				t.Fatalf("each finished job retains %d B after GC, want ≤ %d B", perJob, bound)
			}
		})
	}
}
