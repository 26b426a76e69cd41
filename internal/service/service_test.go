package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"anonnet/internal/faults"
	"anonnet/internal/job"
)

func ringSpec(seed int64) job.Spec {
	return job.Spec{
		Graph:    job.GraphSpec{Builder: "ring", N: 16},
		Kind:     "od",
		Function: "average",
		Values:   []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3},
		Seed:     seed,
	}
}

// longSpec runs for tens of seconds unless canceled: with patience equal
// to the round budget, the stabilization detector can never fire early,
// so the job runs all 500k rounds — the workhorse for cancellation and
// deadline tests.
func longSpec(seed int64) job.Spec {
	return job.Spec{
		Graph:     job.GraphSpec{Builder: "randomdyn", N: 8},
		Kind:      "od",
		Function:  "average",
		Seed:      seed,
		MaxRounds: 500000,
		Patience:  500000,
	}
}

func waitState(t testing.TB, s *Service, id string, want State) *Job {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		j, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == want {
			return j
		}
		if j.State.Terminal() {
			t.Fatalf("job %s reached terminal state %q (err %q), want %q", id, j.State, j.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
	return nil
}

// decodeResult reads a job's Result bytes back into a job.Result.
func decodeResult(t testing.TB, raw json.RawMessage) *job.Result {
	t.Helper()
	var res job.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result %s: %v", raw, err)
	}
	return &res
}

func TestSubmitAndComplete(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	j, err := s.Submit(ringSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if j.Hash == "" || j.ID == "" {
		t.Fatalf("submission missing id/hash: %+v", j)
	}
	done := waitState(t, s, j.ID, StateDone)
	res := decodeResult(t, done.Result)
	if !res.Stable {
		t.Fatalf("no stable result: %s", done.Result)
	}
	want := 5.0 // average of the 16 values
	for i, o := range res.Outputs {
		if math.Abs(float64(o)-want) > 1e-9 {
			t.Fatalf("output %d = %v, want %v", i, o, want)
		}
	}
	st := s.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheHit(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	first, err := s.Submit(ringSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, StateDone)

	second, err := s.Submit(ringSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.State != StateDone {
		t.Fatalf("second submission not served from cache: %+v", second)
	}
	a, _ := s.Get(first.ID)
	b, _ := s.Get(second.ID)
	if !bytes.Equal(a.Result, b.Result) {
		t.Fatalf("cached result differs:\n%s\n%s", a.Result, b.Result)
	}
	if st := s.Stats(); st.CacheHits != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// A different seed is a different computation: no cache hit.
	third, err := s.Submit(ringSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Fatal("different seed served from cache")
	}
	waitState(t, s, third.ID, StateDone)
}

// TestResultIndexServesEveryDoneHash: the result index evicts nothing,
// so after an ephemeral service finished 200 distinct jobs, resubmitting
// the first is a hit that runs no round. Earlier builds kept results in a
// 128-entry LRU, which had evicted it.
func TestResultIndexServesEveryDoneHash(t *testing.T) {
	const jobs = 200
	s := New(Config{Workers: 1, QueueDepth: jobs})
	defer s.Close()
	spec := func(seed int64) job.Spec {
		return job.Spec{Graph: job.GraphSpec{Builder: "ring", N: 16}, Kind: "bc", Function: "max",
			Seed: seed, MaxRounds: 2, Patience: 2}
	}
	var first *Job
	for i := int64(0); i < jobs; i++ {
		j, err := s.Submit(spec(i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = j
		}
	}
	done := waitState(t, s, first.ID, StateDone)
	for _, j := range s.List() {
		waitState(t, s, j.ID, StateDone)
	}
	ran := s.Stats().RoundsSimulated
	again, err := s.Submit(spec(0))
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.State != StateDone || !bytes.Equal(again.Result, done.Result) {
		t.Fatalf("resubmission of the first job: state %s, cache hit %v; want a cache hit with its result", again.State, again.CacheHit)
	}
	st := s.Stats()
	if n := st.RoundsSimulated - ran; n != 0 {
		t.Fatalf("the hit ran %d rounds, want 0", n)
	}
	if st.CacheEntries != jobs {
		t.Fatalf("result index holds %d hashes after %d distinct jobs, want %d", st.CacheEntries, jobs, jobs)
	}
}

func TestCancelRunning(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	j, err := s.Submit(longSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, StateRunning)
	if _, err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, j.ID, StateCanceled)
	if got.Result != nil {
		t.Fatalf("canceled job has a result: %s", got.Result)
	}
	if st := s.Stats(); st.Canceled != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCancelQueued(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	running, err := s.Submit(longSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, StateRunning)
	queued, err := s.Submit(longSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("queued job state after cancel = %q, want canceled", got.State)
	}
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, StateCanceled)
}

func TestQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	running, err := s.Submit(longSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, StateRunning)
	if _, err := s.Submit(longSpec(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(longSpec(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	s.CancelAll()
}

func TestSubmitBatch(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	specs := []job.Spec{ringSpec(1), ringSpec(2), ringSpec(3)}
	b, err := s.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Jobs) != 3 {
		t.Fatalf("batch has %d jobs, want 3", len(b.Jobs))
	}
	// Members are ordinary jobs: Get works on them.
	for _, j := range b.Jobs {
		if _, err := s.Get(j.ID); err != nil {
			t.Fatalf("member %s: %v", j.ID, err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		got, err := s.GetBatch(b.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Done == 3 {
			if got.Failed != 0 {
				t.Fatalf("batch failed: %+v", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never finished: %+v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// An identical batch is served from the cache without queueing.
	again, err := s.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	if again.Done != 3 || again.CacheHits != 3 {
		t.Fatalf("resubmitted batch not cache-served: %+v", again)
	}
}

func TestSubmitBatchAllOrNothing(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer s.Close()
	// One invalid spec poisons the whole batch; nothing is enqueued.
	bad := ringSpec(9)
	bad.Function = "entropy"
	if _, err := s.SubmitBatch([]job.Spec{ringSpec(8), bad}); err == nil {
		t.Fatal("batch with invalid member accepted")
	}
	if st := s.Stats(); st.Submitted != 0 || st.Queued != 0 {
		t.Fatalf("failed batch left state behind: %+v", st)
	}
	if _, err := s.SubmitBatch(nil); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("want ErrEmptyBatch, got %v", err)
	}
	over := make([]job.Spec, MaxBatchSize+1)
	for i := range over {
		over[i] = ringSpec(int64(i))
	}
	if _, err := s.SubmitBatch(over); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("want ErrBatchTooLarge, got %v", err)
	}
	if _, err := s.GetBatch("b9999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestSubmitBatchQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	running, err := s.Submit(longSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, StateRunning)
	// Three fresh jobs into a 2-slot queue: rejected atomically.
	if _, err := s.SubmitBatch([]job.Spec{longSpec(2), longSpec(3), longSpec(4)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if st := s.Stats(); st.Queued != 0 {
		t.Fatalf("rejected batch partially enqueued: %+v", st)
	}
	// Two fit.
	if _, err := s.SubmitBatch([]job.Spec{longSpec(2), longSpec(3)}); err != nil {
		t.Fatal(err)
	}
	s.CancelAll()
}

func TestDeadline(t *testing.T) {
	s := New(Config{Workers: 1, JobTimeout: 20 * time.Millisecond})
	defer s.Close()
	j, err := s.Submit(longSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, j.ID, StateFailed)
	if got.Error == "" {
		t.Fatal("deadline failure has no error message")
	}
	if st := s.Stats(); st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWatchStreamsProgressAndTerminal(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	j, err := s.Submit(ringSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ch, stop, err := s.Watch(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var events, lastRound int
	var sawTerminal bool
	for ev := range ch {
		events++
		if ev.Done {
			sawTerminal = true
			if ev.State != StateDone {
				t.Fatalf("terminal state = %q", ev.State)
			}
		} else if ev.Round < lastRound {
			t.Fatalf("rounds went backwards: %d after %d", ev.Round, lastRound)
		}
		lastRound = ev.Round
	}
	if !sawTerminal || events == 0 {
		t.Fatalf("saw %d events, terminal=%v", events, sawTerminal)
	}
	// Watching a terminal job yields its terminal event immediately.
	ch2, stop2, err := s.Watch(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	ev, ok := <-ch2
	if !ok || !ev.Done {
		t.Fatalf("terminal watch: ok=%v ev=%+v", ok, ev)
	}
}

// TestWatchEndsWithTerminalEvent: a watcher that reads nothing while a
// 500-round job publishes every round fills its 64-slot buffer, yet its
// stream ends with the terminal event: finishing the job gives up the
// oldest round event to make room. Earlier builds dropped the terminal
// event, and the stream ended on round 64.
func TestWatchEndsWithTerminalEvent(t *testing.T) {
	const rounds = 500
	g := newGate()
	s := New(Config{Workers: 1, Intercept: g.intercept})
	defer s.Close()
	j, err := s.Submit(durableSpec(41, rounds))
	if err != nil {
		t.Fatal(err)
	}
	ch, stop, err := s.Watch(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	g.release(1)
	waitTerminal(t, s, j.ID)
	var events []Progress
	for ev := range ch {
		events = append(events, ev)
	}
	if len(events) != cap(ch) {
		t.Fatalf("the watcher got %d events, want a full buffer of %d", len(events), cap(ch))
	}
	last := events[len(events)-1]
	if !last.Done || last.State != StateDone || last.Round != rounds || last.JobID != j.ID {
		t.Fatalf("last event %+v, want the terminal one: done at round %d", last, rounds)
	}
	for _, ev := range events[:len(events)-1] {
		if ev.Done {
			t.Fatalf("terminal event %+v before the last one", ev)
		}
	}
}

func TestSubmitValidatesSpec(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, err := s.Submit(job.Spec{Kind: "od", Function: "average"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	var verr *job.Error
	_, err := s.Submit(job.Spec{Graph: job.GraphSpec{Builder: "ring", N: 4}, Kind: "nope", Function: "average"})
	if !errors.As(err, &verr) {
		t.Fatalf("want typed validation error, got %v", err)
	}
}

// TestChurnRejectFailsTheRun: admission does not build the network, so a
// reject-guard churn plan whose first window disconnects it is accepted,
// and the job fails with the error the build returns.
func TestChurnRejectFailsTheRun(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := ringSpec(1)
	spec.SchemaVersion = 3
	spec.Faults = &faults.Plan{Churn: &faults.ChurnPlan{Drop: 1, Guard: faults.GuardReject}}
	sub, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit rejected a spec that only its run can check: %v", err)
	}
	c, err := job.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, want := c.Build(nil)
	if want == nil || !strings.Contains(want.Error(), "disconnects") {
		t.Fatalf("build error %v, want the reject guard's", want)
	}
	if j := waitTerminal(t, s, sub.ID); j.State != StateFailed || j.Error != want.Error() {
		t.Fatalf("job ended %q with %q, want failed with %q", j.State, j.Error, want)
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	s := New(Config{Workers: 2})
	ids := make([]string, 0, 6)
	for seed := int64(1); seed <= 6; seed++ {
		j, err := s.Submit(ringSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	s.Close() // must block until every queued job ran
	for _, id := range ids {
		j, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateDone {
			t.Fatalf("job %s state after Close = %q", id, j.State)
		}
	}
	if _, err := s.Submit(ringSpec(99)); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}
