package service

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"anonnet/internal/job"
	"anonnet/internal/store"
)

// persist appends one record to the durable store. Every persist
// attempts its append. An append that lost its record marks the job
// dirty: the service keeps serving from memory, and the next append that
// lands backfills every dirty job, so the log converges to what memory
// holds. A store.ErrSyncFailed append landed (it replays after a process
// crash) and dirties nothing. Callers hold s.mu.
func (s *Service) persist(rec store.Record) {
	if s.cfg.Store == nil {
		return
	}
	rec.Unix = time.Now().UnixNano()
	if err := s.appendLocked(rec); err != nil && s.noteStoreError(err) {
		var lost *store.Record
		if _, held := s.jobs[rec.JobID]; !held {
			kept := rec
			lost = &kept
		}
		s.dirty[rec.JobID] = lost
		return
	}
	s.backfillLocked()
}

// appendLocked appends rec to the store. A record too large for a log
// frame (store.ErrRecordTooLarge) is a property of its job, not a disk
// fault, and would fail every retry: it counts as a store error, and the
// transition is logged without its spec and result, so the job is not
// left dirty. Callers hold s.mu.
func (s *Service) appendLocked(rec store.Record) error {
	err := s.cfg.Store.Append(rec)
	if errors.Is(err, store.ErrRecordTooLarge) {
		s.storeErrs.Add(1)
		rec.Spec, rec.Result = nil, nil
		err = s.cfg.Store.Append(rec)
	}
	return err
}

// noteStoreError counts one failed store operation and reports whether it
// lost its data: a store.ErrSyncFailed append reached the file and will
// replay after a crash (lost durability only), so its job needs no
// backfill.
func (s *Service) noteStoreError(err error) (lost bool) {
	s.storeErrs.Add(1)
	if errors.Is(err, store.ErrSyncFailed) {
		s.syncFails.Add(1)
		return false
	}
	return true
}

// backfillLocked re-persists the current state of every dirty job, in
// ascending job-ID order so that a backfill writes the same records in the
// same order on every run: one append per job carrying its spec, latest
// state, and (when terminal) result or error, so a log that went dark
// mid-flight converges to the truth the memory view holds. A job the
// service does not hold — one Recover failed — is backfilled with the
// record it lost. An append that loses its record ends the backfill and
// leaves that job and the rest dirty for the next append that lands.
// Callers hold s.mu.
func (s *Service) backfillLocked() {
	if len(s.dirty) == 0 {
		return
	}
	ids := make([]string, 0, len(s.dirty))
	for id := range s.dirty {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		var rec store.Record
		if e, ok := s.jobs[id]; ok {
			rec = store.Record{JobID: e.id, Hash: e.hash, State: string(e.state), Spec: e.specJSON, Error: e.err}
			if e.state == StateDone {
				rec.Result = e.result
			}
		} else {
			rec = *s.dirty[id]
		}
		rec.Unix = time.Now().UnixNano()
		if err := s.appendLocked(rec); err != nil && s.noteStoreError(err) {
			return
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
			// failed save is counted and never fails the job (the run just
			// resumes from an older round after a crash).
			if err := s.cfg.Store.SaveCheckpoint(hash, blob); err != nil {
				s.noteStoreError(err)
			}
			return nil
		},
	}
	if blob, err := s.cfg.Store.LatestCheckpoint(hash); err == nil {
		ck.Resume = blob
	}
	return ck
}
