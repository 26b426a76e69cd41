// Package gossip implements the simple gossip (flooding) algorithm: each
// agent repeatedly broadcasts the set of input values it has heard of and
// unions what it receives. Within D (dynamic-diameter) rounds every agent
// holds the full set of input values, so any set-based function is
// computable — the positive half of the simple-broadcast row of Tables 1
// and 2. The impossibility halves (nothing beyond set-based is computable
// by broadcast) are exercised by the core package's fibration witnesses.
package gossip

import (
	"fmt"
	"slices"

	"anonnet/internal/funcs"
	"anonnet/internal/model"
)

// Agent is one gossip automaton. It implements the senders of all four
// communication models, since a broadcast algorithm runs unchanged in the
// richer models (it simply ignores the extra information).
type Agent struct {
	f funcs.Func
	// set is the set of values heard of, a funcs.Set view of an ascending,
	// distinct slice, so f reads it in place. The slice is sent as is, and
	// the engines hand one message to several receivers and hold delayed
	// ones across rounds, so a slice once sent is never written again: a
	// growing set is always a new slice.
	set funcs.Args
	// own holds the agent's input, the slice of its first set.
	own [1]float64
}

var (
	_ model.Broadcaster     = (*Agent)(nil)
	_ model.OutdegreeSender = (*Agent)(nil)
	_ model.PortSender      = (*Agent)(nil)
	_ model.Corruptible     = (*Agent)(nil)
)

// NewFactory returns a factory of gossip agents computing f, which must be
// set-based: gossip forgets multiplicities by construction, so a larger
// class would silently compute the wrong function.
func NewFactory(f funcs.Func) (model.Factory, error) {
	if f.Class != funcs.SetBased {
		return nil, fmt.Errorf("gossip: function %q is %v, need set-based", f.Name, f.Class)
	}
	return func(in model.Input) model.Agent {
		a := &Agent{f: f, own: [1]float64{in.Value}}
		a.set = funcs.Set(a.own[:])
		return a
	}, nil
}

// Send broadcasts the sorted set of values seen so far.
func (a *Agent) Send() model.Message { return a.set.Values() }

// SendOutdegree ignores the outdegree: gossip is graph-invariant (§2.2).
func (a *Agent) SendOutdegree(int) model.Message { return a.Send() }

// SendPorts sends the same set on every port.
func (a *Agent) SendPorts(outdeg int) []model.Message {
	m := a.Send()
	out := make([]model.Message, outdeg)
	for i := range out {
		out[i] = m
	}
	return out
}

// Receive unions the received sets into the local one. The unseen values
// are appended to a clipped view of the set, so the first of them copies
// it into a new slice and the sent one is never written; with none the set
// is left as it is.
func (a *Agent) Receive(msgs []model.Message) {
	seen := a.set.Values()
	next := slices.Clip(seen)
	for _, m := range msgs {
		vals, ok := m.([]float64)
		if !ok {
			continue // foreign message; gossip is tolerant by nature
		}
		for _, v := range vals {
			if _, known := slices.BinarySearch(seen, v); !known {
				next = append(next, v)
			}
		}
	}
	if len(next) > len(seen) {
		a.grow(next)
	}
}

// Output evaluates f on the set of values seen (each with multiplicity 1 —
// immaterial for a set-based f), read in place.
func (a *Agent) Output() model.Value { return a.f.Eval(&a.set) }

// Corrupt injects junk values into the seen-set. Gossip never forgets, so
// it is *not* self-stabilizing — the self-stabilization tests demonstrate
// exactly this failure, as the paper notes for flooding-style algorithms.
func (a *Agent) Corrupt(junk int64) {
	a.grow(append(slices.Clip(a.set.Values()), float64(junk%1000)+0.5))
}

// grow makes next — a new slice holding the set's values and then the
// ones to add — the set, leaving the old slice, which may have been sent,
// untouched.
func (a *Agent) grow(next []float64) {
	slices.Sort(next)
	a.set = funcs.Set(slices.Compact(next))
}
