package metropolis

import (
	"fmt"

	"anonnet/internal/funcs"
	"anonnet/internal/model"
	"anonnet/internal/reconstruct"
)

// FreqMsg carries the sender's per-value estimates and degree.
type FreqMsg struct {
	X map[float64]float64
	D int
}

// FreqMode selects the output reconstruction of a frequency run.
type FreqMode int

// The reconstruction modes (the symmetric-communications column of Table 2).
const (
	// FreqApproximate evaluates f on the normalized estimates; converges
	// for functions δ-continuous in frequency.
	FreqApproximate FreqMode = iota + 1
	// FreqRoundToBound rounds each estimate in ℚ_N with a known bound N,
	// giving exact frequency-based computation ([11]'s row of Table 2).
	FreqRoundToBound
	// FreqExactSize recovers multiplicities with the exact size known,
	// giving multiset-based computation.
	FreqExactSize
)

// FreqAgent runs one average-consensus instance per value present in the
// network: the estimate vector x_i[ω] starts as the indicator of the own
// value and converges to the frequency ν(ω), because Metropolis updates are
// doubly stochastic and a joining agent contributes estimate 0 — the
// symmetric-communications route to frequency-based functions in dynamic
// networks (Table 2, after [11, 24]).
type FreqAgent struct {
	variant Variant
	boundN  int
	mode    FreqMode
	f       funcs.Func
	knownN  int

	deg int
	x   map[float64]float64
	out model.Value

	// universe is the engine-provided dense layout for vectorized runs:
	// sorted distinct input values, read-only (see model.VectorAgent).
	universe []float64
}

var (
	_ model.OutdegreeSender = (*FreqAgent)(nil)
	_ model.Broadcaster     = (*FreqAgent)(nil)
	_ model.VectorAgent     = (*FreqAgent)(nil)
)

// FreqConfig parameterizes NewFreqFactory.
type FreqConfig struct {
	// F is the function computed from the recovered frequencies.
	F funcs.Func
	// Variant selects the weight rule; MaxDegree runs under plain
	// symmetric communications, Standard/Lazy need outdegree awareness.
	Variant Variant
	// BoundN is the bound N ≥ n (required by MaxDegree and by
	// FreqRoundToBound).
	BoundN int
	// Mode selects the output reconstruction.
	Mode FreqMode
	// KnownN is the exact size (FreqExactSize).
	KnownN int
}

// NewFreqFactory validates cfg against Table 2's symmetric column and
// returns the factory.
func NewFreqFactory(cfg FreqConfig) (model.Factory, error) {
	switch cfg.Variant {
	case Standard, Lazy:
	case MaxDegree:
		if cfg.BoundN < 1 {
			return nil, fmt.Errorf("metropolis: MaxDegree needs a bound N ≥ 1, got %d", cfg.BoundN)
		}
	default:
		return nil, fmt.Errorf("metropolis: invalid variant %d", int(cfg.Variant))
	}
	switch cfg.Mode {
	case FreqApproximate:
		if !funcs.FrequencyBased.Contains(cfg.F.Class) {
			return nil, fmt.Errorf("metropolis: %q is %v; only frequency-based functions converge without size knowledge", cfg.F.Name, cfg.F.Class)
		}
	case FreqRoundToBound:
		if cfg.BoundN < 1 {
			return nil, fmt.Errorf("metropolis: FreqRoundToBound needs a bound N ≥ 1, got %d", cfg.BoundN)
		}
		if !funcs.FrequencyBased.Contains(cfg.F.Class) {
			return nil, fmt.Errorf("metropolis: %q is %v; with only a bound, only frequency-based functions are computable", cfg.F.Name, cfg.F.Class)
		}
	case FreqExactSize:
		if cfg.KnownN < 1 {
			return nil, fmt.Errorf("metropolis: FreqExactSize needs the size n ≥ 1, got %d", cfg.KnownN)
		}
	default:
		return nil, fmt.Errorf("metropolis: invalid frequency mode %d", int(cfg.Mode))
	}
	return func(in model.Input) model.Agent {
		return &FreqAgent{
			variant: cfg.Variant,
			boundN:  cfg.BoundN,
			mode:    cfg.Mode,
			f:       cfg.F,
			knownN:  cfg.KnownN,
			x:       map[float64]float64{in.Value: 1},
			out:     cfg.F.Eval(funcs.NewArgs(in.Value)),
		}
	}, nil
}

// SendOutdegree records the degree and broadcasts the estimates (degree-
// aware variants).
func (a *FreqAgent) SendOutdegree(outdeg int) model.Message {
	a.deg = outdeg
	return a.buildMsg(outdeg)
}

// Send broadcasts the estimates alone (MaxDegree under plain symmetric
// communications).
func (a *FreqAgent) Send() model.Message { return a.buildMsg(0) }

func (a *FreqAgent) buildMsg(deg int) model.Message {
	x := make(map[float64]float64, len(a.x))
	for k, v := range a.x {
		x[k] = v
	}
	return FreqMsg{X: x, D: deg}
}

// Receive applies the per-value Metropolis update. A value unknown to the
// agent joins with estimate 0, and a neighbour unaware of ω is treated as
// holding 0 — both ends of a link compute the same view of the exchange, so
// the per-instance sum is conserved and every estimate converges to ν(ω).
func (a *FreqAgent) Receive(msgs []model.Message) {
	incoming := make([]FreqMsg, 0, len(msgs))
	support := make(map[float64]bool, len(a.x))
	for w := range a.x {
		support[w] = true
	}
	for _, raw := range msgs {
		m, ok := raw.(FreqMsg)
		if !ok {
			continue
		}
		incoming = append(incoming, m)
		for w := range m.X {
			support[w] = true
		}
	}
	next := make(map[float64]float64, len(support))
	if a.variant == MaxDegree {
		// Factored form shared verbatim with the vectorized path (see
		// maxDegreeStep): sum the neighbours' estimates first, then apply
		// the 1/N-weighted correction once.
		for w := range support {
			xw := a.x[w] // 0 when joining
			var sum float64
			for _, m := range incoming {
				sum += m.X[w] // missing entries read as 0
			}
			next[w] = maxDegreeStep(xw, sum, len(incoming), a.boundN)
		}
	} else {
		for w := range support {
			xw := a.x[w] // 0 when joining
			sum := xw
			for _, m := range incoming {
				sum += a.weight(m.D) * (m.X[w] - xw) // missing entries read as 0
			}
			next[w] = sum
		}
	}
	a.x = next
	a.refreshOutput()
}

// InitVector reports width 2 per universe value — the estimate and an
// awareness flag — for the MaxDegree variant; Standard and Lazy decline,
// exactly as the plain Agent does. The flag reproduces the support-set
// semantics: a value enters an agent's estimate map when some neighbour
// runs its instance, even at estimate 0.
func (a *FreqAgent) InitVector(universe []float64) int {
	if a.variant != MaxDegree {
		return 0
	}
	a.universe = universe
	return 2 * len(universe)
}

// SendVector lays the estimates out densely; unaware values contribute
// exact-zero rows (estimates are non-negative, so adding them never flips
// a sign bit).
func (a *FreqAgent) SendVector(outdeg int, dst []float64) {
	for k, w := range a.universe {
		if x, aware := a.x[w]; aware {
			dst[2*k] = x
			dst[2*k+1] = 1
		} else {
			dst[2*k] = 0
			dst[2*k+1] = 0
		}
	}
}

// ReceiveVector applies the factored per-value MaxDegree update on the
// engine-summed rows — the same expression, on bit-identical operands, as
// the generic Receive.
func (a *FreqAgent) ReceiveVector(sum []float64, count int) {
	next := make(map[float64]float64, len(a.x))
	for k, w := range a.universe {
		xw, joined := a.x[w]
		if sum[2*k+1] == 0 && !joined {
			continue // ω not in support: no instance here yet
		}
		next[w] = maxDegreeStep(xw, sum[2*k], count, a.boundN)
	}
	a.x = next
	a.refreshOutput()
}

// Estimates returns a copy of the per-value estimates, for tests.
func (a *FreqAgent) Estimates() map[float64]float64 {
	out := make(map[float64]float64, len(a.x))
	for w, v := range a.x {
		out[w] = v
	}
	return out
}

func (a *FreqAgent) refreshOutput() {
	var (
		ms *funcs.Args
		ok bool
	)
	switch a.mode {
	case FreqApproximate:
		ms, ok = reconstruct.Approximate(a.x, 360360)
	case FreqRoundToBound:
		ms, ok = reconstruct.Rounded(a.x, a.boundN)
	case FreqExactSize:
		ms, ok = reconstruct.Counts(a.x, float64(a.knownN))
	}
	if !ok {
		return
	}
	a.out = a.f.Eval(ms)
}

// weight reuses the pairwise weight rule of the plain agent.
func (a *FreqAgent) weight(neighbourDeg int) float64 {
	plain := Agent{variant: a.variant, boundN: a.boundN, deg: a.deg}
	return plain.weight(neighbourDeg)
}

// Output returns the current output value.
func (a *FreqAgent) Output() model.Value { return a.out }
