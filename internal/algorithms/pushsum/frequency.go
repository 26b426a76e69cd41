package pushsum

import (
	"fmt"
	"math"

	"anonnet/internal/funcs"
	"anonnet/internal/model"
	"anonnet/internal/reconstruct"
)

// FreqMsg is the per-round message of the frequency algorithm: the sender's
// full (y, z) arrays, undivided, plus its current outdegree — the
// ⟨y_i, z_i, d⁻_i⟩ of Algorithm 1.
type FreqMsg struct {
	Y, Z map[float64]float64
	D    int
}

// Mode selects how a Frequency agent turns its running frequency estimates
// into the output value.
type Mode int

// Output modes, one per §5.4/§5.5 result.
const (
	// Approximate outputs f evaluated on the normalized frequencies x̂
	// (§5.4's no-bound case): convergence holds for every function that is
	// δ-continuous in frequency (Cor. 5.5).
	Approximate Mode = iota + 1
	// RoundToBound rounds each frequency to the nearest rational of ℚ_N
	// for a known bound N ≥ n, giving exact computation in finite time of
	// any frequency-based function (Cor. 5.3).
	RoundToBound
	// ExactSize recovers multiplicities from frequencies with the exact
	// size n known, computing any multiset-based function (Cor. 5.4).
	ExactSize
	// LeaderCount recovers multiplicities as ℓ·x[ω] with ℓ known leaders
	// (§5.5), computing any multiset-based function.
	LeaderCount
)

// Frequency runs one Push-Sum instance per value present in the network
// (Algorithm 1) under outdegree awareness.
//
// Deviation from the transcribed pseudocode, recorded in DESIGN.md §6:
// lines 9–10, read literally, patch a missing entry of a sender with
// z = 1 every round, which injects z-mass whenever an agent stays unaware
// of ω for several rounds (on the 3-path with ω at one end, total z-mass
// settles at 19/6 ≠ 3). We implement the column-stochastic emulation of the
// asynchronous-start reduction (§5.3) that the paper's own correctness
// argument appeals to: a sender unaware of ω contributes nothing to
// instance ω, and an agent incorporates its retained unit mass exactly once
// — at the round it first processes ω. Total z-mass is then exactly n once
// every agent has joined, and x[ω] → multiplicity(ω)/n.
type Frequency struct {
	mode    Mode
	f       funcs.Func
	boundN  int // RoundToBound
	knownN  int // ExactSize
	leaders int // LeaderCount
	leader  bool

	own    float64
	outdeg int
	y, z   map[float64]float64
	out    model.Value

	// universe is the engine-provided dense layout for vectorized runs:
	// sorted distinct input values, read-only (see model.VectorAgent).
	universe []float64
}

var (
	_ model.OutdegreeSender = (*Frequency)(nil)
	_ model.VectorAgent     = (*Frequency)(nil)
)

// FrequencyConfig parameterizes NewFrequencyFactory.
type FrequencyConfig struct {
	// F is the function computed from the recovered frequencies or
	// multiplicities.
	F funcs.Func
	// Mode selects the §5.4/§5.5 variant.
	Mode Mode
	// BoundN is the known bound N ≥ n (RoundToBound).
	BoundN int
	// KnownN is the known exact size (ExactSize).
	KnownN int
	// Leaders is the known number of leaders (LeaderCount).
	Leaders int
}

// NewFrequencyFactory validates the configuration against the paper's
// characterization and returns the agent factory.
func NewFrequencyFactory(cfg FrequencyConfig) (model.Factory, error) {
	switch cfg.Mode {
	case Approximate:
		if !funcs.FrequencyBased.Contains(cfg.F.Class) {
			return nil, fmt.Errorf("pushsum: %q is %v; without a bound only (continuous) frequency-based functions converge (Cor. 5.5)", cfg.F.Name, cfg.F.Class)
		}
	case RoundToBound:
		if cfg.BoundN < 1 {
			return nil, fmt.Errorf("pushsum: RoundToBound needs a bound N ≥ 1, got %d", cfg.BoundN)
		}
		if !funcs.FrequencyBased.Contains(cfg.F.Class) {
			return nil, fmt.Errorf("pushsum: %q is %v; with only a bound, only frequency-based functions are computable (Cor. 5.3)", cfg.F.Name, cfg.F.Class)
		}
	case ExactSize:
		if cfg.KnownN < 1 {
			return nil, fmt.Errorf("pushsum: ExactSize needs the size n ≥ 1, got %d", cfg.KnownN)
		}
	case LeaderCount:
		if cfg.Leaders < 1 {
			return nil, fmt.Errorf("pushsum: LeaderCount needs ℓ ≥ 1 known leaders, got %d", cfg.Leaders)
		}
	default:
		return nil, fmt.Errorf("pushsum: invalid mode %d", int(cfg.Mode))
	}
	return func(in model.Input) model.Agent {
		a := &Frequency{
			mode:    cfg.Mode,
			f:       cfg.F,
			boundN:  cfg.BoundN,
			knownN:  cfg.KnownN,
			leaders: cfg.Leaders,
			leader:  in.Leader,
			own:     in.Value,
			y:       map[float64]float64{in.Value: 1},
			z:       map[float64]float64{in.Value: initialMass(cfg.Mode, in.Leader)},
			out:     cfg.F.Eval(funcs.NewArgs(in.Value)),
		}
		return a
	}, nil
}

// initialMass is the z initialization: 1 in the standard algorithm; in the
// leader variant 1 for leaders and 0 otherwise (§5.5).
func initialMass(mode Mode, leader bool) float64 {
	if mode == LeaderCount && !leader {
		return 0
	}
	return 1
}

// SendOutdegree ships the full arrays with the current outdegree.
func (a *Frequency) SendOutdegree(outdeg int) model.Message {
	a.outdeg = outdeg
	y := make(map[float64]float64, len(a.y))
	z := make(map[float64]float64, len(a.z))
	for k, v := range a.y {
		y[k] = v
	}
	for k, v := range a.z {
		z[k] = v
	}
	return FreqMsg{Y: y, Z: z, D: outdeg}
}

// Receive applies the per-value Push-Sum update: for every value ω known to
// any sender, sum the shares of the senders aware of ω; an agent joining
// instance ω adds its retained initial mass once.
func (a *Frequency) Receive(msgs []model.Message) {
	incoming := make([]FreqMsg, 0, len(msgs))
	support := make(map[float64]bool, len(a.y))
	for w := range a.y {
		support[w] = true
	}
	for _, raw := range msgs {
		m, ok := raw.(FreqMsg)
		if !ok || m.D < 1 {
			continue
		}
		incoming = append(incoming, m)
		for w := range m.Y {
			support[w] = true
		}
	}
	newY := make(map[float64]float64, len(support))
	newZ := make(map[float64]float64, len(support))
	for w := range support {
		var ySum, zSum float64
		for _, m := range incoming {
			if _, aware := m.Y[w]; !aware {
				continue // unaware sender: its mass is retained at its end
			}
			d := float64(m.D)
			ySum += m.Y[w] / d
			zSum += m.Z[w] / d
		}
		if _, joined := a.y[w]; !joined {
			// First time processing instance ω: incorporate the retained
			// initial mass exactly once (the virtual self-loop of the
			// asynchronous-start reduction).
			zSum += initialMass(a.mode, a.leader)
		}
		newY[w] = ySum
		newZ[w] = zSum
	}
	a.y, a.z = newY, newZ
	a.refreshOutput()
}

// InitVector reports width 3 per universe value: the y-share, the z-share,
// and an awareness flag. The flag is load-bearing: an agent aware of ω with
// zero mass differs from an unaware one — awareness is what triggers a
// neighbour's one-time initial-mass join — and the flat rows must carry
// that distinction, since a dense 0 cannot.
func (a *Frequency) InitVector(universe []float64) int {
	a.universe = universe
	return 3 * len(universe)
}

// SendVector lays the per-value shares out densely. The shares are the very
// m.Y[ω]/d divisions Receive performs on arrival, moved to the sender —
// identical operands, identical bits — and an unaware value's (0, 0, 0) row
// contributes exact zeros that leave the receiver's running sums unchanged
// (the masses are non-negative, so no −0 can arise).
func (a *Frequency) SendVector(outdeg int, dst []float64) {
	a.outdeg = outdeg
	d := float64(outdeg)
	for k, w := range a.universe {
		if y, aware := a.y[w]; aware {
			dst[3*k] = y / d
			dst[3*k+1] = a.z[w] / d
			dst[3*k+2] = 1
		} else {
			dst[3*k] = 0
			dst[3*k+1] = 0
			dst[3*k+2] = 0
		}
	}
}

// ReceiveVector applies the same per-value update as Receive: a value is in
// support when some sender was aware of it (flag sum > 0) or this agent
// already runs its instance; a joining agent incorporates its retained
// initial mass exactly once.
func (a *Frequency) ReceiveVector(sum []float64, count int) {
	newY := make(map[float64]float64, len(a.y))
	newZ := make(map[float64]float64, len(a.y))
	for k, w := range a.universe {
		_, joined := a.y[w]
		if sum[3*k+2] == 0 && !joined {
			continue // ω not in support: no instance here yet
		}
		ySum, zSum := sum[3*k], sum[3*k+1]
		if !joined {
			zSum += initialMass(a.mode, a.leader)
		}
		newY[w] = ySum
		newZ[w] = zSum
	}
	a.y, a.z = newY, newZ
	a.refreshOutput()
}

// Quotients returns the raw per-value quotients x[ω] = y[ω]/z[ω] (which
// converge to ν(ω) in the standard modes and to multiplicity(ω)/ℓ in the
// leader variant). Values with z[ω] = 0 map to +Inf, as §5.5 notes can
// transiently happen.
func (a *Frequency) Quotients() map[float64]float64 {
	out := make(map[float64]float64, len(a.y))
	for w, y := range a.y {
		z := a.z[w]
		if z == 0 {
			out[w] = math.Inf(1)
			continue
		}
		out[w] = y / z
	}
	return out
}

// Mass returns the total (Σy, Σz) held by this agent, for the conservation
// property tests.
func (a *Frequency) Mass() (y, z float64) {
	for _, v := range a.y {
		y += v
	}
	for _, v := range a.z {
		z += v
	}
	return y, z
}

func (a *Frequency) refreshOutput() {
	ms, ok := a.reconstruct()
	if !ok {
		return
	}
	a.out = a.f.Eval(ms)
}

// reconstruct builds the value multiset the function is applied to, per
// mode.
func (a *Frequency) reconstruct() (*funcs.Args, bool) {
	x := a.Quotients()
	switch a.mode {
	case Approximate:
		return reconstruct.Approximate(x, 360360) // highly divisible denominator
	case RoundToBound:
		return reconstruct.Rounded(x, a.boundN)
	case ExactSize:
		return reconstruct.Counts(x, float64(a.knownN))
	case LeaderCount:
		return reconstruct.Counts(x, float64(a.leaders))
	default:
		return nil, false
	}
}

// Output returns the current output value.
func (a *Frequency) Output() model.Value { return a.out }
