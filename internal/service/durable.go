package service

import (
	"errors"
	"fmt"
	"time"

	"anonnet/internal/job"
	"anonnet/internal/store"
)

// persist appends one record to the durable store. Append failures (disk
// full, store closed during shutdown races) are counted, not fatal: the
// service keeps serving from memory. Failures also feed the circuit
// breaker — once it opens, appends are dropped outright (the job is
// remembered as dirty) until a half-open probe lands, at which point the
// dirty set is backfilled. Callers hold s.mu, which is what makes the
// breaker fields plain fields.
func (s *Service) persist(rec store.Record) {
	if s.cfg.Store == nil {
		return
	}
	rec.Unix = time.Now().UnixNano()
	if s.degradedLocked() {
		s.degradedDrop.Add(1)
		s.dirty[rec.JobID] = true
		return
	}
	if err := s.appendLocked(rec); err != nil {
		if lost := s.noteStoreFailureLocked(err); lost {
			s.dirty[rec.JobID] = true
		}
		return
	}
	s.noteStoreSuccessLocked()
}

// appendLocked appends rec to the store. A record too large for a log
// frame (store.ErrRecordTooLarge) is a property of its job, not a disk
// fault, and would fail every retry: it counts as a store error, and the
// transition is logged without its spec and result, so the breaker never
// sees it and the job is not left dirty. Callers hold s.mu.
func (s *Service) appendLocked(rec store.Record) error {
	err := s.cfg.Store.Append(rec)
	if errors.Is(err, store.ErrRecordTooLarge) {
		s.storeErrs.Add(1)
		rec.Spec, rec.Result = nil, nil
		err = s.cfg.Store.Append(rec)
	}
	return err
}

// degradedLocked reports whether the breaker is open and still inside its
// cooldown — the window in which persists are dropped rather than
// attempted. Once the cooldown elapses the next persist goes through as
// the half-open probe. Callers hold s.mu.
func (s *Service) degradedLocked() bool {
	return s.breakerOpen && time.Since(s.breakerOpenedAt) < s.cfg.BreakerCooldown
}

// noteStoreSuccessLocked records a successful append: the failure streak
// resets, a half-open probe closes the breaker, and any dirty backlog —
// from a degraded stretch or from sporadic failures that never tripped —
// is flushed. Callers hold s.mu.
func (s *Service) noteStoreSuccessLocked() {
	s.consecFails = 0
	s.breakerOpen = false
	if len(s.dirty) > 0 {
		s.backfillLocked()
	}
}

// noteStoreFailureLocked counts one failed store operation and advances
// the breaker state machine. The return value reports whether record data
// was actually lost: a store.ErrSyncFailed append reached the file and
// will replay after a crash (lost durability only), so its job does not
// need a backfill. Callers hold s.mu.
func (s *Service) noteStoreFailureLocked(err error) (lost bool) {
	s.storeErrs.Add(1)
	lost = true
	if errors.Is(err, store.ErrSyncFailed) {
		s.syncFails.Add(1)
		lost = false
	}
	s.consecFails++
	switch {
	case s.breakerOpen:
		// Failed half-open probe: stay open and restart the cooldown.
		s.breakerOpenedAt = time.Now()
	case s.cfg.BreakerThreshold > 0 && s.consecFails >= s.cfg.BreakerThreshold:
		s.breakerOpen = true
		s.breakerOpenedAt = time.Now()
		s.breakerTrips.Add(1)
	}
	return lost
}

// backfillLocked re-persists the current state of every dirty job after
// the breaker closes: one append per job carrying its spec, latest state,
// and (when terminal) result or error, so a log that went dark mid-flight
// still converges to the truth the memory view holds. A failure mid-flush
// re-opens the breaker and leaves the remainder dirty for the next probe.
// Callers hold s.mu.
func (s *Service) backfillLocked() {
	for id := range s.dirty {
		e, ok := s.jobs[id]
		if !ok {
			delete(s.dirty, id)
			continue
		}
		rec := store.Record{JobID: e.id, Hash: e.hash, State: string(e.state),
			Spec: e.specJSON, Error: e.err, Unix: time.Now().UnixNano()}
		if e.state == StateDone {
			rec.Result = e.result
		}
		if err := s.appendLocked(rec); err != nil {
			if lost := s.noteStoreFailureLocked(err); lost {
				// The disk proved unhealthy again mid-recovery: re-open
				// immediately rather than rebuilding a failure streak while
				// more records go missing. id stays dirty for the next probe.
				if !s.breakerOpen {
					s.breakerOpen = true
					s.breakerOpenedAt = time.Now()
					s.breakerTrips.Add(1)
				}
				return
			}
			// Sync-only failure: the record is in the log, keep flushing.
		}
		delete(s.dirty, id)
		s.backfilled.Add(1)
	}
}

// Recover re-registers every non-terminal job found in the durable store —
// the boot step after a crash or graceful shutdown — under its original
// ID, whatever their number: New sized the queue for them beside
// QueueDepth. The jobs go through the admission pass in log order, so
// identical ones resume as one execution from their hash's checkpoint,
// and one whose hash already has a logged result is born done without
// running. A spec is decoded as a submission is (job.Decode: unknown
// fields and trailing data are refused) and must compile to its logged
// hash, so a job never resumes as another computation under its old ID.
// A spec that fails either check is marked failed in the log, and the
// logged hash's checkpoint dropped, rather than wedging recovery. Returns
// the number of jobs registered.
func (s *Service) Recover() (int, error) {
	if s.cfg.Store == nil {
		return 0, nil
	}
	pending := s.cfg.Store.Pending()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	var cs []*job.Compiled
	var ids []string
	for _, v := range pending {
		if _, exists := s.jobs[v.JobID]; exists {
			continue
		}
		spec, err := job.Decode(v.Spec)
		var compiled *job.Compiled
		if err == nil {
			compiled, err = job.Compile(spec)
		}
		if err == nil && compiled.Hash != v.Hash {
			err = fmt.Errorf("spec compiles to hash %s, logged under %s", compiled.Hash, v.Hash)
		}
		if err != nil {
			s.persist(store.Record{JobID: v.JobID, Hash: v.Hash, State: store.StateFailed,
				Error: fmt.Sprintf("recovery: %v", err)})
			// Equal hashes are equal canonical specs, so no other pending
			// job can resume from this blob.
			s.cfg.Store.DropCheckpoints(v.Hash)
			continue
		}
		cs = append(cs, compiled)
		ids = append(ids, v.JobID)
	}
	es, err := s.admitLocked(cs, ids)
	for _, e := range es {
		if e.cacheHit {
			// A logged result makes the hash's resume point moot.
			s.cfg.Store.DropCheckpoints(e.hash)
		}
	}
	return len(es), err
}

// checkpointConfig wires one execution to the durable store: periodic
// snapshots land as checkpoint blobs keyed by the spec hash, the
// execution's flush channel carries shutdown's flush request, and any
// on-disk checkpoint of the same hash — a previous run of this exact
// computation — seeds the resume.
func (s *Service) checkpointConfig(x *execution) job.CheckpointConfig {
	hash := x.compiled.Hash
	ck := job.CheckpointConfig{
		Every: s.cfg.CheckpointEvery,
		Flush: x.flush,
		Save: func(blob []byte) error {
			// A checkpoint is an optimization, not a correctness need: a
			// failed or skipped save must never fail the job (the run just
			// resumes from an older round after a crash). Failures feed the
			// breaker like any other store error; while degraded, saves are
			// skipped outright.
			s.mu.Lock()
			degraded := s.degradedLocked()
			s.mu.Unlock()
			if degraded {
				s.degradedDrop.Add(1)
				return nil
			}
			err := s.cfg.Store.SaveCheckpoint(hash, blob)
			s.mu.Lock()
			if err != nil {
				s.noteStoreFailureLocked(err)
			} else {
				s.noteStoreSuccessLocked()
			}
			s.mu.Unlock()
			return nil
		},
	}
	if blob, err := s.cfg.Store.LatestCheckpoint(hash); err == nil {
		ck.Resume = blob
	}
	return ck
}
