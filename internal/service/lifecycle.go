package service

import (
	"context"
	"fmt"
	"time"

	"anonnet/internal/job"
	"anonnet/internal/store"
)

// State is a job's lifecycle state.
type State string

// The job lifecycle: queued → running → done | failed | canceled, with
// queued → canceled possible before a worker picks the job up, and
// cache-served jobs born done. A durable service adds running →
// interrupted at graceful shutdown: the engine state is flushed to a
// checkpoint and the job resumes (as queued) on the next boot.
const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateInterrupted State = "interrupted"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCanceled    State = "canceled"
)

// stateNew is the state of an entry that transition has not yet
// registered.
const stateNew State = ""

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// settled reports whether a job in this state makes no further transition
// in this process: a terminal state, or interrupted, which only the next
// boot's Recover picks up. Its watch streams have nothing left to say.
func (s State) settled() bool { return s.Terminal() || s == StateInterrupted }

// legal is the job state machine: legal[from][to] holds for exactly the
// transitions a job can make. An interrupted job makes none in this
// process; the next boot's Recover registers it afresh.
var legal = map[State]map[State]bool{
	stateNew:     {StateQueued: true, StateDone: true},
	StateQueued:  {StateRunning: true, StateCanceled: true},
	StateRunning: {StateDone: true, StateFailed: true, StateCanceled: true, StateInterrupted: true},
}

// cause names why a transition happened. For a new entry it picks the
// counter the transition bumps.
type cause string

const (
	causeSubmit  cause = "submit"  // a new job with its own execution
	causeDedup   cause = "dedup"   // a new job joining an identical in-flight execution
	causeCache   cause = "cache"   // a new job served from the result tiers
	causeRecover cause = "recover" // a persisted job re-registered at boot
	causeRun     cause = "run"     // its execution started or finished
	causeCancel  cause = "cancel"  // its client canceled it
)

// entry is one client's job. All fields after the immutable header are
// guarded by Service.mu.
type entry struct {
	id       string
	hash     string
	specJSON []byte // the kept spec encoding (job.Compiled.SpecJSON), shared read-only
	dedupOf  string // creator of the execution this job joined as a duplicate

	state     State
	err       string
	cacheHit  bool
	result    []byte // the encoded result, shared read-only
	submitted time.Time
	started   time.Time
	finished  time.Time
	exec      *execution // the run this job waits on; nil once it left or settled
	subs      map[chan Progress]struct{}
}

// execution is one engine run and the entries waiting on it. The queue
// and the dedup index hold executions; a job submitted while an identical
// one is in flight joins that execution as a member instead of running
// again. The run stops when its last member leaves. Fields after the
// header are guarded by Service.mu.
type execution struct {
	id       string // the creating entry's ID (Intercept, panic messages)
	compiled *job.Compiled

	members      []*entry
	started      time.Time          // zero while queued
	cancel       context.CancelFunc // non-nil exactly while running
	flush        chan struct{}      // non-nil while running durably: shutdown's flush request
	resultLogged bool               // a member's done record carried the result payload
}

// transition moves e to state to, the only write of e.state. It stamps
// e's timestamps, bumps the transition's counter, appends the store
// record and, on a terminal or interrupted state, ends e's watch streams
// with that state's event. An illegal transition is a bug and panics.
// Callers hold s.mu and set e.err or e.result before moving e to failed
// or done.
func (s *Service) transition(e *entry, to State, c cause) {
	from := e.state
	if !legal[from][to] {
		panic(fmt.Sprintf("service: job %s: illegal transition %q → %q (%s)", e.id, from, to, c))
	}
	e.state = to
	if from == stateNew {
		s.created[c]++
	} else {
		s.reached[to]++
	}
	switch to {
	case StateRunning:
		e.started = e.exec.started
	case StateInterrupted, StateDone, StateFailed, StateCanceled:
		e.finished = time.Now()
	}
	if s.cfg.Store != nil {
		s.persist(record(e, from, c))
	}
	if to.settled() {
		s.finishLocked(e)
	}
}

// record renders e's transition into its state as one log record: the
// spec on the job's first record, the result payload on the first done
// record of each execution, the error on failed. Spec and result are the
// bytes compile and settle encoded, not encoded again. Callers hold
// Service.mu.
func record(e *entry, from State, c cause) store.Record {
	rec := store.Record{JobID: e.id, Hash: e.hash, State: string(e.state)}
	if from == stateNew && c != causeRecover {
		rec.Spec = e.specJSON
	}
	switch e.state {
	case StateDone:
		if x := e.exec; x != nil && !x.resultLogged {
			x.resultLogged = true
			rec.Result = e.result
		}
	case StateFailed:
		rec.Error = e.err
	}
	return rec
}
