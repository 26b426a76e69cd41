package service

// Single-flight dedup lifecycle coverage: followers attach to queued and
// running leaders, share the one execution's result / failure / panic,
// detach individually under Cancel, and keep the execution alive until
// the last interested member lets go. Plus the durable composition: the
// result payload is persisted exactly once, and recovery re-attaches
// nothing.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
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

func (g *gate) intercept(ctx context.Context, jobID string, attempt int) error {
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
	if a.Result == nil || b.Result == nil || a.Result.MaxErr != b.Result.MaxErr || len(a.Result.Outputs) != len(b.Result.Outputs) {
		t.Fatalf("results diverge:\n%+v\n%+v", a.Result, b.Result)
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
		t.Fatalf("follower ended %q with result %v", j.State, j.Result)
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
		t.Fatalf("follower of detached leader ended %q (result %v), want done", j.State, j.Result)
	}
	// The leader's client-facing state never flipped back.
	if j, _ := s.Get(lead.ID); j.State != StateCanceled {
		t.Fatalf("detached leader reports %q, want canceled", j.State)
	}
	// A fresh identical submission starts a new execution (the detached
	// leader left the single-flight index)... unless the result cache
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

func TestDedupDisabled(t *testing.T) {
	g := newGate()
	s := New(Config{Workers: 2, Intercept: g.intercept, NoDedup: true})
	defer s.Close()

	a, _ := s.Submit(ringSpec(5))
	b, _ := s.Submit(ringSpec(5))
	if b.DedupOf != "" {
		t.Fatalf("NoDedup submission attached to %s", b.DedupOf)
	}
	g.release(2)
	waitTerminal(t, s, a.ID)
	waitTerminal(t, s, b.ID)
	if got := g.count(); got != 2 {
		t.Fatalf("execution ran %d times with dedup off, want 2", got)
	}
	if st := s.Stats(); st.DedupCoalesced != 0 {
		t.Fatalf("DedupCoalesced = %d with dedup off", st.DedupCoalesced)
	}
}
