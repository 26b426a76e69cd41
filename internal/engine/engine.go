// Package engine executes algorithms on networks under the round semantics
// of §2.2: in each round t every agent sends according to its model's
// sending function, the communication graph 𝔾(t) routes the messages, and
// every agent applies its transition function to the received multiset.
//
// Five interchangeable runners implement the semantics: a deterministic
// sequential engine, a sharded batch engine that partitions the agents
// across cores, a vectorized kernel that executes linear mass-passing
// algorithms (model.VectorAgent) over flat float64 buffers with zero
// steady-state allocations, single-threaded or on a pool of parallel
// workers, and a flooding kernel that executes set-flooding algorithms
// (model.SetAgent) over flat set arenas with one agent instead of n. The
// first four are thin executors over one shared round core (core.go); all
// five share one topology substrate (internal/topology), and property
// tests assert they produce identical traces for deterministic agents.
package engine

import (
	"anonnet/internal/model"
	"anonnet/internal/topology"
)

// Runner is the common interface of the five runners.
type Runner interface {
	// Step executes one round.
	Step() error
	// Round returns the number of completed rounds.
	Round() int
	// Outputs returns the agents' current output values x_i(t).
	Outputs() []model.Value
	// N returns the number of agents.
	N() int
	// Corrupt scrambles the volatile state of every Corruptible agent, for
	// self-stabilization experiments; it reports how many agents were
	// corrupted.
	Corrupt(junk int64) int
	// Stats returns cumulative execution statistics.
	Stats() Stats
	// Close releases resources (the parallel vectorized kernel's worker
	// goroutines); it is idempotent, and Step after Close fails.
	Close()
}

// Stats are cumulative execution statistics, for communication-cost
// reporting.
type Stats struct {
	// Rounds is the number of completed rounds.
	Rounds int
	// MessagesDelivered counts every delivered message (one per edge per
	// round between active agents, duplicates and re-delivered delayed
	// messages included).
	MessagesDelivered int64
	// Faults counts the injected faults actually applied.
	Faults FaultStats
}

// Engine is the deterministic sequential runner: every pipeline stage is a
// plain loop over the agents on the calling goroutine. It is the reference
// executor the other four are property-tested against.
type Engine struct {
	*core
}

var _ Runner = (*Engine)(nil)

// New validates cfg, instantiates the agents, and returns a sequential
// engine positioned before round 1.
func New(cfg Config) (*Engine, error) {
	c, err := newCore(cfg, "sequential")
	if err != nil {
		return nil, err
	}
	return &Engine{core: c}, nil
}

// Step executes one round: restart, send, route (with fault fates),
// shuffle, receive.
func (e *Engine) Step() error { return e.step(e) }

func (e *Engine) restart(t int) error { return e.restartAll(t) }

func (e *Engine) send(t int, snap *topology.Snapshot) error {
	e.buffers(snap)
	return e.sendRange(snap, 0, e.N())
}

func (e *Engine) exchange(t int, snap *topology.Snapshot) error {
	delivered, err := e.deliverRange(snap, t, 0, e.N(), &e.faults)
	if err != nil {
		return err
	}
	e.messages += delivered
	e.shuffleAll()
	return nil
}

func (e *Engine) receive(t int, snap *topology.Snapshot) error {
	e.receiveRange(0, e.N())
	return nil
}
