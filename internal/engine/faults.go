package engine

import (
	"fmt"

	"anonnet/internal/model"
)

// This file is the engine side of the fault-injection layer: the injector
// contract the engines consult, the fate applied to each in-flight message,
// and the pending store that re-delivers delayed messages into a later
// round's multiset. The concrete, seeded injector lives in internal/faults;
// the engines only see the interface, so a nil injector keeps every code
// path — and every trace — bit-identical to fault-free execution.

// Fate is the outcome of the fault channels for one message in flight on
// one edge in one round. The zero Fate delivers the message normally.
type Fate struct {
	// Drop discards the message (and suppresses Dup and Delay).
	Drop bool
	// Dup is the number of extra copies delivered alongside the original.
	Dup int
	// Delay postpones delivery by that many rounds (0: deliver this
	// round). Delayed messages are appended to the destination's multiset
	// of the later round, after that round's direct deliveries; if the
	// destination is inactive (stalled or not yet started) when they come
	// due, they are lost.
	Delay int
}

// FaultInjector decides the faults of one execution. Implementations MUST
// be deterministic pure functions of their construction parameters and the
// call arguments — the three engines evaluate them from different
// goroutines in different orders and must still produce identical traces.
// Self-loop messages (an agent hearing itself) are never subjected to
// MessageFate; the engines exempt them, matching the physical intuition
// that a process always observes its own state.
type FaultInjector interface {
	// Stalled reports whether the agent skips round t entirely: it neither
	// sends nor receives, and messages addressed to it are lost, but its
	// state survives.
	Stalled(t, agent int) bool
	// Restart reports whether the agent crash-restarts at the beginning of
	// round t: its state is reset to the factory's initial state for its
	// original input before the round's sends.
	Restart(t, agent int) bool
	// MessageFate returns the fate of the round-t message(s) carried on
	// edges src→dst. Parallel edges between the same ordered pair share a
	// fate (they are one channel).
	MessageFate(t, src, dst int) Fate
}

// FaultStats counts the faults an engine actually applied; part of Stats.
type FaultStats struct {
	// Dropped counts messages discarded by the drop channel.
	Dropped int64
	// Duplicated counts extra copies delivered by the duplication channel.
	Duplicated int64
	// Delayed counts messages (copies included) deferred to a later round.
	Delayed int64
}

func (f *FaultStats) add(g FaultStats) {
	f.Dropped += g.Dropped
	f.Duplicated += g.Duplicated
	f.Delayed += g.Delayed
}

// pendingMsg is one delayed message waiting for its due round.
type pendingMsg struct {
	due int
	msg model.Message
}

// pendingStore holds delayed messages per destination. Entries are
// appended in delivery-iteration order — identical across the runners,
// because each runner fills a destination's inbox in the same
// per-destination order (sources ascending, edge insertion order) — and
// flushed in that order, so the pre-shuffle inbox contents agree byte for
// byte.
type pendingStore struct {
	byDst [][]pendingMsg
}

func newPendingStore(n int) *pendingStore {
	return &pendingStore{byDst: make([][]pendingMsg, n)}
}

// add enqueues a message for dst at round due.
func (p *pendingStore) add(dst, due int, m model.Message) {
	p.byDst[dst] = append(p.byDst[dst], pendingMsg{due: due, msg: m})
}

// flush removes every pending message for dst that is due by round t,
// appending it to inbox when deliver is true (an inactive destination
// loses its due messages).
func (p *pendingStore) flush(dst, t int, inbox []model.Message, deliver bool) []model.Message {
	q := p.byDst[dst]
	if len(q) == 0 {
		return inbox
	}
	keep := q[:0]
	for _, pm := range q {
		if pm.due <= t {
			if deliver {
				inbox = append(inbox, pm.msg)
			}
		} else {
			keep = append(keep, pm)
		}
	}
	p.byDst[dst] = keep
	return inbox
}

// restartAgents applies the crash-restart channel at the beginning of
// round t: affected agents are rebuilt from the factory with their
// original inputs. All three engines call this while the agents are
// quiescent (between rounds), so the engine goroutine owns every agent.
func restartAgents(inj FaultInjector, t int, factory model.Factory, inputs []model.Input, agents []model.Agent) error {
	if inj == nil {
		return nil
	}
	for i := range agents {
		if !inj.Restart(t, i) {
			continue
		}
		a := factory(inputs[i])
		if a == nil {
			return fmt.Errorf("engine: factory returned nil agent restarting agent %d at round %d", i, t)
		}
		agents[i] = a
	}
	return nil
}

// applyStalls clears the activity bits of agents stalled in round t.
func applyStalls(inj FaultInjector, t int, active []bool) {
	if inj == nil {
		return
	}
	for i := range active {
		if active[i] && inj.Stalled(t, i) {
			active[i] = false
		}
	}
}

// applyFate routes one message according to its fate: into the inbox
// (possibly multiple copies), into the pending store, or nowhere.
func applyFate(f Fate, m model.Message, t, dst int, inbox *[]model.Message, pend *pendingStore, fs *FaultStats) {
	if f.Drop {
		fs.Dropped++
		return
	}
	copies := 1
	if f.Dup > 0 {
		copies += f.Dup
		fs.Duplicated += int64(f.Dup)
	}
	if f.Delay > 0 {
		fs.Delayed += int64(copies)
		for c := 0; c < copies; c++ {
			pend.add(dst, t+f.Delay, m)
		}
		return
	}
	for c := 0; c < copies; c++ {
		*inbox = append(*inbox, m)
	}
}
