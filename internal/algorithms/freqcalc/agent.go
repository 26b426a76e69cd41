package freqcalc

import (
	"fmt"

	"anonnet/internal/algorithms/minbase"
	"anonnet/internal/funcs"
	"anonnet/internal/model"
)

// Help encodes the centralized-help assumptions of Table 1's rows.
type Help struct {
	// BoundN is a known bound N ≥ n, else 0 (Cor. 4.2). A bound does not
	// enlarge the computable class, but it enables the finite-state
	// minimum-base variant (§1's preference): agents freeze their
	// refinement once a stable stretch certifies the base, bounding state
	// and bandwidth.
	BoundN int
	// KnownN is the exact network size if known, else 0 (Cor. 4.3).
	KnownN int
	// Leaders is the number of distinguished leaders if known to all
	// agents, else 0 (Cor. 4.4 / eq. (5)); the leaders themselves are
	// marked via model.Input.Leader.
	Leaders int
}

// None is the no-centralized-help row of Table 1.
var None = Help{}

// Agent computes a frequency-based (or, with help, multiset-based) function
// by layering the §4.2 value-recovery on the distributed minimum-base
// automaton. It exposes the senders of the three capable models; the engine
// selects by Config.Kind.
type Agent struct {
	mb   minbaseAgent
	kind model.Kind
	f    funcs.Func
	help Help
	out  model.Value
}

// minbaseAgent is the slice of the minbase automaton the wrapper needs;
// both the unbounded and the finite-state (bounded) agents satisfy it.
type minbaseAgent interface {
	model.Broadcaster
	model.OutdegreeSender
	model.PortSender
	model.Corruptible
	CandidateBase() (*minbase.Base, bool)
}

var (
	_ model.Broadcaster     = (*Agent)(nil)
	_ model.OutdegreeSender = (*Agent)(nil)
	_ model.PortSender      = (*Agent)(nil)
	_ model.Corruptible     = (*Agent)(nil)
)

// NewFactory returns a factory of agents computing f under the given model
// and help. Without help, f must be frequency-based (Theorem 4.1: nothing
// more is computable); with the size known or leaders present, any
// multiset-based f is accepted (Cor. 4.3, 4.4).
func NewFactory(kind model.Kind, f funcs.Func, help Help) (model.Factory, error) {
	if _, err := minbase.NewAgent(kind, model.Input{}); err != nil {
		return nil, err
	}
	if help.BoundN < 0 || help.KnownN < 0 || help.Leaders < 0 {
		return nil, fmt.Errorf("freqcalc: negative help %+v", help)
	}
	if help.KnownN == 0 && help.Leaders == 0 && !funcs.FrequencyBased.Contains(f.Class) {
		return nil, fmt.Errorf("freqcalc: function %q is %v; without size or leaders only frequency-based functions are computable (Theorem 4.1)",
			f.Name, f.Class)
	}
	return func(in model.Input) model.Agent {
		var mb minbaseAgent
		if help.BoundN > 0 {
			mb, _ = minbase.NewBoundedAgent(kind, in, help.BoundN)
		} else {
			mb, _ = minbase.NewAgent(kind, in)
		}
		return &Agent{
			mb:   mb,
			kind: kind,
			f:    f,
			help: help,
			out:  f.Eval(funcs.NewArgs(in.Value)),
		}
	}, nil
}

// Send delegates to the minimum-base automaton (symmetric model).
func (a *Agent) Send() model.Message { return a.mb.Send() }

// SendOutdegree delegates to the minimum-base automaton (od model).
func (a *Agent) SendOutdegree(outdeg int) model.Message { return a.mb.SendOutdegree(outdeg) }

// SendPorts delegates to the minimum-base automaton (op model).
func (a *Agent) SendPorts(outdeg int) []model.Message { return a.mb.SendPorts(outdeg) }

// Receive advances the minimum-base computation and refreshes the output
// from the current candidate, keeping the previous output when the
// candidate is not (yet) solvable — outputs must merely converge (§2.3).
func (a *Agent) Receive(msgs []model.Message) {
	a.mb.Receive(msgs)
	base, ok := a.mb.CandidateBase()
	if !ok {
		return
	}
	ms, err := a.reconstruct(base)
	if err != nil {
		return
	}
	a.out = a.f.Eval(ms)
}

// reconstruct turns a candidate base into the value multiset f is applied
// to: multiplicities z without help (defined up to the factor k of eq. (2),
// immaterial for a frequency-based f), k·z with k = n/Σz when n is known,
// and k·z with k = ℓ/Σ_{L_B} z_j when ℓ leaders are known (eq. (5)).
func (a *Agent) reconstruct(base *minbase.Base) (*funcs.Args, error) {
	z, err := SolveFor(a.kind, base)
	if err != nil {
		return nil, err
	}
	k := 1
	switch {
	case a.help.Leaders > 0:
		w := base.LeaderWeight(z)
		if w == 0 || a.help.Leaders%w != 0 {
			return nil, fmt.Errorf("freqcalc: leader weight %d does not divide leader count %d", w, a.help.Leaders)
		}
		k = a.help.Leaders / w
	case a.help.KnownN > 0:
		s := 0
		for _, zi := range z {
			s += zi
		}
		if s == 0 || a.help.KnownN%s != 0 {
			return nil, fmt.Errorf("freqcalc: candidate weight %d does not divide known size %d", s, a.help.KnownN)
		}
		k = a.help.KnownN / s
	}
	if k != 1 {
		for i := range z {
			z[i] *= k
		}
	}
	return base.Multiset(z), nil
}

// Output returns the current value of the output variable.
func (a *Agent) Output() model.Value { return a.out }

// Corrupt scrambles the underlying minimum-base state and the output.
func (a *Agent) Corrupt(junk int64) {
	a.mb.Corrupt(junk)
	a.out = float64(junk%97) + 0.25
}

// Minbase exposes the underlying automaton, for white-box tests.
func (a *Agent) Minbase() minbaseAgent { return a.mb }
