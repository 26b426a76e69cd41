// Package reconstruct turns converging per-value frequency estimates into
// the value multisets that functions are evaluated on — the output side of
// §5.4 and §5.5, shared by the Push-Sum and Metropolis frequency
// algorithms. Each function walks the estimates in ascending value order,
// so the multiset it builds depends on the estimates alone, never on map
// iteration order.
package reconstruct

import (
	"math"
	"slices"

	"anonnet/internal/funcs"
	"anonnet/internal/rational"
)

// Approximate builds an ⟨x̂⟩-frequenced multiset from raw quotients,
// normalized and discretized with the fixed denominator q (§5.4's x̂
// construction): each value gets ⌊x̂[ω]·q⌉ slots. For a function that is
// δ-continuous in frequency, evaluating on this multiset converges to f(v)
// as the quotients converge (Cor. 5.5).
func Approximate(x map[float64]float64, q int) (*funcs.Args, bool) {
	keys := sortedKeys(x)
	total := 0.0
	for _, w := range keys {
		v := x[w]
		if math.IsInf(v, 0) || math.IsNaN(v) || v < 0 {
			return nil, false
		}
		total += v
	}
	if total <= 0 {
		return nil, false
	}
	entries := make([]funcs.Entry, len(keys))
	for i, w := range keys {
		entries[i] = funcs.Entry{Value: w, Count: int(math.Round(x[w] / total * float64(q)))}
	}
	return nonEmpty(entries)
}

// Rounded rounds each quotient to the nearest element of ℚ_N (N a known
// bound ≥ n) and assembles the exact ⟨ν⟩ vector (Cor. 5.3): once every
// quotient is within 1/(2N²) of the true frequency the result is exactly ν
// and never changes again.
func Rounded(x map[float64]float64, n int) (*funcs.Args, bool) {
	type vf struct {
		w    float64
		p, q int64
	}
	vals := make([]vf, 0, len(x))
	l := int64(1)
	for _, w := range sortedKeys(x) {
		v := x[w]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return nil, false
		}
		r := rational.RoundToQN(v, n)
		if r.Sign() == 0 {
			continue // rounds to zero: treated as absent
		}
		vals = append(vals, vf{w: w, p: r.Num().Int64(), q: r.Denom().Int64()})
		l = lcm64(l, r.Denom().Int64())
		if l > 1<<40 {
			return nil, false
		}
	}
	if len(vals) == 0 {
		return nil, false
	}
	entries := make([]funcs.Entry, len(vals))
	for i, v := range vals {
		entries[i] = funcs.Entry{Value: v.w, Count: int(v.p * (l / v.q))}
	}
	return nonEmpty(entries)
}

// Counts recovers integer multiplicities as ⌊scale·x[ω]⌉ — scale = n for
// Cor. 5.4, scale = ℓ for the leader variant of §5.5.
func Counts(x map[float64]float64, scale float64) (*funcs.Args, bool) {
	keys := sortedKeys(x)
	entries := make([]funcs.Entry, 0, len(keys))
	for _, w := range keys {
		v := x[w]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		if c := int(math.Round(scale * v)); c > 0 {
			entries = append(entries, funcs.Entry{Value: w, Count: c})
		}
	}
	return nonEmpty(entries)
}

func sortedKeys(x map[float64]float64) []float64 {
	keys := make([]float64, 0, len(x))
	for w := range x {
		keys = append(keys, w)
	}
	slices.Sort(keys)
	return keys
}

// nonEmpty builds the multiset and reports whether it has any element.
func nonEmpty(entries []funcs.Entry) (*funcs.Args, bool) {
	m := funcs.CountArgs(entries)
	return m, m.Len() > 0
}

func lcm64(a, b int64) int64 { return a / gcd64(a, b) * b }

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}
