package service

// Hardened-runtime coverage: worker panic recovery, transient-error
// retries with backoff, and the readiness probe.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestPanicRecoveredKeepsServing is the acceptance criterion: a job whose
// attempt panics (standing in for a panicking agent factory) ends failed
// with the panic message, the worker pool survives, readiness stays
// ready, and a subsequent submission completes normally.
func TestPanicRecoveredKeepsServing(t *testing.T) {
	intercept := func(ctx context.Context, jobID string, attempt int) error {
		if jobID == "j000001" {
			panic("agent factory exploded")
		}
		return nil
	}
	s := New(Config{Workers: 1, Intercept: intercept})
	defer s.Close()

	j, err := s.Submit(ringSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	j = waitTerminal(t, s, j.ID)
	if j.State != StateFailed {
		t.Fatalf("panicking job ended %q, want failed", j.State)
	}
	if !strings.Contains(j.Error, "panicked") || !strings.Contains(j.Error, "agent factory exploded") {
		t.Fatalf("failed job error %q does not carry the panic", j.Error)
	}
	if got := s.Stats().PanicsRecovered; got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}
	if r := s.Readiness(); !r.Ready || r.Workers != 1 {
		t.Fatalf("service not ready after recovered panic: %+v", r)
	}

	// The pool is still alive: an ordinary job completes.
	j2, err := s.Submit(ringSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	j2 = waitTerminal(t, s, j2.ID)
	if j2.State != StateDone {
		t.Fatalf("follow-up job ended %q (err %q), want done", j2.State, j2.Error)
	}
}

func TestTransientRetrySucceeds(t *testing.T) {
	calls := 0
	intercept := func(ctx context.Context, jobID string, attempt int) error {
		calls++
		if calls <= 2 {
			return fmt.Errorf("%w: backend hiccup %d", ErrTransient, calls)
		}
		return nil
	}
	s := New(Config{Workers: 1, Intercept: intercept, MaxRetries: 3, RetryBase: time.Millisecond})
	defer s.Close()

	j, err := s.Submit(ringSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	j = waitTerminal(t, s, j.ID)
	if j.State != StateDone {
		t.Fatalf("job ended %q (err %q), want done after retries", j.State, j.Error)
	}
	if calls != 3 {
		t.Fatalf("intercept called %d times, want 3", calls)
	}
	if got := s.Stats().Retries; got != 2 {
		t.Fatalf("Retries = %d, want 2", got)
	}
}

func TestTransientRetryExhausted(t *testing.T) {
	intercept := func(context.Context, string, int) error {
		return fmt.Errorf("%w: always down", ErrTransient)
	}
	s := New(Config{Workers: 1, Intercept: intercept, MaxRetries: 2, RetryBase: time.Millisecond})
	defer s.Close()

	j, err := s.Submit(ringSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	j = waitTerminal(t, s, j.ID)
	if j.State != StateFailed || !strings.Contains(j.Error, "transient") {
		t.Fatalf("job ended %q (err %q), want failed with transient error", j.State, j.Error)
	}
	if got := s.Stats().Retries; got != 2 {
		t.Fatalf("Retries = %d, want 2", got)
	}
}

func TestRetriesDisabled(t *testing.T) {
	calls := 0
	intercept := func(context.Context, string, int) error {
		calls++
		return fmt.Errorf("%w: nope", ErrTransient)
	}
	s := New(Config{Workers: 1, Intercept: intercept, MaxRetries: -1})
	defer s.Close()

	j, err := s.Submit(ringSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	j = waitTerminal(t, s, j.ID)
	if j.State != StateFailed || calls != 1 {
		t.Fatalf("state %q after %d calls, want failed after exactly 1", j.State, calls)
	}
}

func TestReadinessSaturationAndClose(t *testing.T) {
	release := make(chan struct{})
	intercept := func(ctx context.Context, jobID string, attempt int) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s := New(Config{Workers: 1, QueueDepth: 1, CacheSize: -1, Intercept: intercept})

	if r := s.Readiness(); !r.Ready {
		t.Fatalf("fresh service not ready: %+v", r)
	}

	// One job running, one saturating the depth-1 queue.
	first, err := s.Submit(ringSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, StateRunning)
	if _, err := s.Submit(ringSpec(2)); err != nil {
		t.Fatal(err)
	}
	r := s.Readiness()
	if r.Ready || r.Reason != "queue full" || r.Queued != 1 || r.QueueDepth != 1 {
		t.Fatalf("saturated service readiness %+v, want not ready, queue full", r)
	}

	close(release)
	s.Close()
	r = s.Readiness()
	if r.Ready || r.Reason != "closed" || r.Workers != 0 {
		t.Fatalf("closed service readiness %+v, want not ready, closed, no workers", r)
	}
}

func waitTerminal(t *testing.T, s *Service, id string) *Job {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		j, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State.Terminal() {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return nil
}
