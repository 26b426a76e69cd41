package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"anonnet/internal/job"
)

// TestConcurrentSubmissionsDeterministic hammers the pool from many
// goroutines with a small set of distinct specs (several seeds, both
// engines) and asserts the service invariant the result index depends
// on: equal canonical hash ⇒ byte-identical result, whichever worker ran
// it, served from the index, joined or fresh. Run under -race (the
// Makefile and CI do), this also shakes the queue, the index, dedup,
// metrics, and subscription plumbing.
func TestConcurrentSubmissionsDeterministic(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 256, ProgressEvery: 4})
	defer s.Close()

	spec := func(seed int64, concurrent bool) job.Spec {
		return job.Spec{
			Graph:      job.GraphSpec{Builder: "ring", N: 8},
			Kind:       "od",
			Function:   "average",
			Values:     []float64{2, 7, 1, 8, 2, 8, 1, 8},
			Seed:       seed,
			Concurrent: concurrent,
		}
	}

	const goroutines = 6
	const perGoroutine = 8
	var (
		mu  sync.Mutex
		ids []string
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				// 4 seeds × 2 engines = 8 distinct hashes, submitted 6×
				// each overall: a resubmission joins the execution in
				// flight or is served from the index once it finished.
				sp := spec(int64(i%4), (g+i)%2 == 0)
				j, err := s.Submit(sp)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if g%3 == 0 {
					// Exercise the subscription path concurrently.
					ch, stop, err := s.Watch(j.ID)
					if err != nil {
						t.Errorf("watch: %v", err)
						return
					}
					go func() {
						for range ch {
						}
					}()
					defer stop()
				}
				mu.Lock()
				ids = append(ids, j.ID)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	byHash := make(map[string]json.RawMessage)
	deadline := time.Now().Add(120 * time.Second)
	for _, id := range ids {
		var got *Job
		for {
			j, err := s.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if j.State.Terminal() {
				got = j
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s still %q at deadline", id, j.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if got.State != StateDone {
			t.Fatalf("job %s finished %q (%s)", id, got.State, got.Error)
		}
		if ref, ok := byHash[got.Hash]; ok {
			if !bytes.Equal(ref, got.Result) {
				t.Fatalf("hash %s produced two different results:\n%s\n%s", got.Hash, ref, got.Result)
			}
		} else {
			byHash[got.Hash] = got.Result
		}
	}
	if len(byHash) != 8 {
		t.Fatalf("expected 8 distinct hashes, got %d", len(byHash))
	}
	st := s.Stats()
	if st.Submitted != goroutines*perGoroutine {
		t.Fatalf("submitted = %d, want %d", st.Submitted, goroutines*perGoroutine)
	}
	if st.Completed+st.CacheHits != st.Submitted || st.Failed != 0 || st.Canceled != 0 {
		t.Fatalf("stats don't add up: %+v", st)
	}
}

// TestConcurrentBatchSharded exercises the sharded engine's recycled
// delivery buffers under concurrent batch submissions: many goroutines
// each submit a sweep of engine=shard specs, so several sharded engines
// run in parallel inside the worker pool while their sync.Pool-backed CSR
// buffers churn. Under -race this is the delivery-buffer safety test; the
// functional assertion is that every batch completes and equal hashes give
// equal results.
func TestConcurrentBatchSharded(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 256, ProgressEvery: 8})
	defer s.Close()

	batch := func(base int64) []job.Spec {
		specs := make([]job.Spec, 4)
		for i := range specs {
			specs[i] = job.Spec{
				SchemaVersion: 2,
				Graph:         job.GraphSpec{Builder: "splitring", N: 12},
				Kind:          "od",
				Function:      "average",
				Seed:          (base + int64(i)) % 6,
				MaxRounds:     400,
				Patience:      400,
				Engine:        "shard",
				Shards:        1 + int(base+int64(i))%4,
			}
		}
		return specs
	}

	const goroutines = 5
	var (
		mu sync.Mutex
		bs []string
		wg sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b, err := s.SubmitBatch(batch(int64(g)))
			if err != nil {
				t.Errorf("batch: %v", err)
				return
			}
			mu.Lock()
			bs = append(bs, b.ID)
			mu.Unlock()
		}(g)
	}
	wg.Wait()

	deadline := time.Now().Add(120 * time.Second)
	byHash := make(map[string]json.RawMessage)
	for _, id := range bs {
		for {
			b, err := s.GetBatch(id)
			if err != nil {
				t.Fatal(err)
			}
			if b.Done == len(b.Jobs) {
				if b.Failed != 0 {
					t.Fatalf("batch %s: %d failed jobs: %+v", id, b.Failed, b.Jobs)
				}
				for _, j := range b.Jobs {
					if ref, ok := byHash[j.Hash]; ok {
						if !bytes.Equal(ref, j.Result) {
							t.Fatalf("hash %s produced two different results", j.Hash)
						}
					} else {
						byHash[j.Hash] = j.Result
					}
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("batch %s incomplete at deadline: %d/%d", id, b.Done, len(b.Jobs))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// Note shards is part of the hash (different shard counts are distinct
	// cache keys) but never the results: every seed's outputs appear once
	// per (seed, shards) pair and all agree byte for byte whenever the
	// full spec matches.
}

// TestConcurrentCancelAndSubmit races cancellations against submissions
// and the drain path; the assertions are the counters' consistency and —
// under -race — the absence of data races.
func TestConcurrentCancelAndSubmit(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 64})
	long := func(seed int64) job.Spec {
		return job.Spec{
			Graph:     job.GraphSpec{Builder: "randomdyn", N: 6},
			Kind:      "od",
			Function:  "average",
			Seed:      seed,
			MaxRounds: 200000,
			Patience:  200000,
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				j, err := s.Submit(long(int64(g*100 + i)))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if _, err := s.Cancel(j.ID); err != nil {
					t.Errorf("cancel: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	s.CancelAll()
	s.Close()
	st := s.Stats()
	if got := st.Completed + st.Failed + st.Canceled; got != st.Submitted {
		t.Fatalf("terminal count %d != submitted %d (%+v)", got, st.Submitted, st)
	}
	for _, j := range s.List() {
		if !j.State.Terminal() {
			t.Fatalf("job %s not terminal after Close: %q", j.ID, j.State)
		}
	}
	_ = fmt.Sprint(st)
}
