package service

import (
	"fmt"
	"math"
	"reflect"
	"slices"

	"anonnet/internal/job"
)

// Batch is a client-facing snapshot of one batch submission: the member
// jobs in submission order plus aggregate progress.
type Batch struct {
	ID   string `json:"id"`
	Jobs []*Job `json:"jobs"`
	// Done counts member jobs in a terminal state; the batch is finished
	// when Done == len(Jobs).
	Done int `json:"done"`
	// Failed counts member jobs that failed or were canceled.
	Failed int `json:"failed"`
	// CacheHits counts member jobs served from the result tiers.
	CacheHits int `json:"cache_hits"`
	// Deduped counts member jobs that joined another job's execution.
	Deduped int `json:"deduped,omitempty"`
}

// SubmitBatch validates and enqueues a parameter sweep as one batch,
// all-or-nothing: if any spec fails validation, or the queue lacks room
// for every job that is not a cache hit or a duplicate of an in-flight
// job, nothing is enqueued. Members are registered — and get their job
// IDs — in submission order. The member jobs are ordinary jobs
// (Get/Cancel/Watch work on them individually); GetBatch aggregates them.
func (s *Service) SubmitBatch(specs []job.Spec) (*Batch, error) {
	if len(specs) == 0 {
		return nil, ErrEmptyBatch
	}
	if len(specs) > MaxBatchSize {
		return nil, fmt.Errorf("%w: %d specs, ceiling is %d", ErrBatchTooLarge, len(specs), MaxBatchSize)
	}
	compiled := make([]*job.Compiled, len(specs))
	for i, sp := range specs {
		if i > 0 && sameSpec(&specs[i], &specs[i-1]) {
			// A repeated member compiles to the same read-only job.
			compiled[i] = compiled[i-1]
			continue
		}
		c, err := job.Compile(sp)
		if err != nil {
			return nil, fmt.Errorf("specs[%d]: %w", i, err)
		}
		compiled[i] = c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	es, err := s.admitLocked(compiled, nil)
	if err != nil {
		return nil, err
	}
	s.nextBatch++
	bid := fmt.Sprintf("b%04d", s.nextBatch)
	ids := make([]string, len(es))
	for i, e := range es {
		ids[i] = e.id
	}
	s.batches[bid] = ids
	return s.batchLocked(bid, ids), nil
}

// sameSpec reports whether two specs compile to the same job. DeepEqual
// compares floats with ==, which takes an explicit -0 input for 0 although
// the two encode, and so hash, apart; Values are therefore also compared
// bit for bit. (A -0 radius canonicalizes as 0.) Pointers keep the
// comparison from boxing two specs.
func sameSpec(a, b *job.Spec) bool {
	return reflect.DeepEqual(a, b) && slices.EqualFunc(a.Values, b.Values, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// GetBatch returns an aggregate snapshot of batch id.
func (s *Service) GetBatch(id string) (*Batch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids, ok := s.batches[id]
	if !ok {
		return nil, ErrNotFound
	}
	return s.batchLocked(id, ids), nil
}

// batchLocked renders a batch snapshot. Callers hold s.mu.
func (s *Service) batchLocked(id string, ids []string) *Batch {
	b := &Batch{ID: id, Jobs: make([]*Job, 0, len(ids))}
	for _, jid := range ids {
		e := s.jobs[jid]
		b.Jobs = append(b.Jobs, snapshot(e))
		if e.state.Terminal() {
			b.Done++
		}
		if e.state == StateFailed || e.state == StateCanceled {
			b.Failed++
		}
		if e.cacheHit {
			b.CacheHits++
		}
		if e.dedupOf != "" {
			b.Deduped++
		}
	}
	return b
}
