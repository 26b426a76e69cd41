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

	"anonnet/internal/funcs"
	"anonnet/internal/model"
)

// Agent is one gossip automaton. It implements the senders of all four
// communication models, since a broadcast algorithm runs unchanged in the
// richer models (it simply ignores the extra information), and the
// flooding kernel's model.SetAgent contract.
type Agent struct {
	f funcs.Func
	// set is the set of values heard of, a funcs.Set view of an ascending,
	// distinct slice that model.SetUnion built, so f reads it in place. The
	// slice is sent as is, and the engines hand one message to several
	// receivers and hold delayed ones across rounds, so a slice once sent
	// is never written again: a growing set is always a new slice.
	set funcs.Args
	// own holds the agent's input, the slice of its first set.
	own [1]float64
	// view is SetOutput's scratch view of the set it is handed.
	view funcs.Args
}

var (
	_ model.Broadcaster     = (*Agent)(nil)
	_ model.OutdegreeSender = (*Agent)(nil)
	_ model.PortSender      = (*Agent)(nil)
	_ model.Corruptible     = (*Agent)(nil)
	_ model.SetAgent        = (*Agent)(nil)
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

// Receive unions the received sets, each an ascending, distinct []float64
// as a gossip agent sends it, into the local one with model.SetUnion —
// the merge the flooding kernel runs on its arenas — so the new set does
// not depend on the order the messages arrive in.
func (a *Agent) Receive(msgs []model.Message) {
	var u model.SetUnion
	u.Reset(a.set.Values())
	for _, m := range msgs {
		vals, ok := m.([]float64)
		if !ok {
			continue // foreign message; gossip is tolerant by nature
		}
		u.Add(vals)
	}
	a.grow(&u)
}

// Output evaluates f on the set of values seen (each with multiplicity 1 —
// immaterial for a set-based f), read in place.
func (a *Agent) Output() model.Value { return a.f.Eval(&a.set) }

// SetOutput evaluates f on set, read in place through the agent's
// scratch view, which keeps viewing it until the next call.
func (a *Agent) SetOutput(set []float64) float64 {
	a.view = funcs.Set(set)
	return a.f.Eval(&a.view)
}

// Corrupt injects a junk value into the seen-set. Gossip never forgets, so
// it is *not* self-stabilizing — the self-stabilization tests demonstrate
// exactly this failure, as the paper notes for flooding-style algorithms.
func (a *Agent) Corrupt(junk int64) {
	var u model.SetUnion
	u.Reset(a.set.Values())
	u.Add([]float64{a.CorruptValue(junk)})
	a.grow(&u)
}

// grow makes u's union the set when it differs from the set, writing it to
// a new slice, so the old one, which may have been sent, is never written;
// with nothing new the set is left as it is.
func (a *Agent) grow(u *model.SetUnion) {
	if u.Grows() {
		a.set = funcs.Set(u.AppendTo(make([]float64, 0, u.Len())))
	}
}

// CorruptValue is the value Corrupt(junk) unions into the set.
func (a *Agent) CorruptValue(junk int64) float64 { return float64(junk%1000) + 0.5 }
