package funcs

import (
	"math"
	"math/rand"
)

// Black-box classification: decide, from sampled evaluations, the smallest
// class a multiset-based function appears to belong to. The impossibility
// halves of the paper's theorems say exactly that an anonymous network can
// never distinguish inputs these invariances identify, so the classifier is
// the semantic counterpart of the computability characterization.

// Classify samples random multisets over the given universe and tests the
// two invariances:
//
//   - frequency invariance: f(m) == f(k·m) for scalings k (a function is
//     frequency-based iff it is invariant under uniform scaling of all
//     multiplicities, since ⟨ν_m⟩ reaches every frequency-equivalent input);
//   - set invariance: f is unchanged by arbitrary multiplicity changes with
//     fixed support.
//
// It returns the smallest class consistent with all samples. Sampled
// classification can only over-approximate invariance (never report a class
// smaller than witnessed violations allow), and for the catalog functions it
// is exact with the default trial count.
func Classify(f Func, universe []float64, trials int, rng *rand.Rand) Class {
	if len(universe) == 0 || trials < 1 {
		return MultisetBased
	}
	frequencyInvariant := true
	setInvariant := true
	for trial := 0; trial < trials; trial++ {
		m := randomMultiset(universe, rng)
		base := f.Eval(m)
		for k := 2; k <= 4; k++ {
			if !close2(base, f.Eval(m.Scale(k))) {
				frequencyInvariant = false
			}
		}
		if !close2(base, f.Eval(resampleMultiplicities(m, rng))) {
			setInvariant = false
		}
		if !frequencyInvariant && !setInvariant {
			return MultisetBased
		}
	}
	switch {
	case setInvariant:
		return SetBased
	case frequencyInvariant:
		return FrequencyBased
	default:
		return MultisetBased
	}
}

func randomMultiset(universe []float64, rng *rand.Rand) *Args {
	entries := make([]Entry, 1+rng.Intn(len(universe)))
	perm := rng.Perm(len(universe))
	for i := range entries {
		entries[i] = Entry{Value: universe[perm[i]], Count: 1 + rng.Intn(4)}
	}
	return CountArgs(entries)
}

func resampleMultiplicities(m *Args, rng *rand.Rand) *Args {
	entries := make([]Entry, m.Distinct())
	for i, v := range m.vals {
		entries[i] = Entry{Value: v, Count: 1 + rng.Intn(5)}
	}
	return CountArgs(entries)
}

func close2(a, b float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// ContinuousInFrequency empirically tests δ-continuity in frequency at the
// input m (§5.4): frequencies are perturbed by amounts shrinking to zero
// and the outputs must approach f(m). discrete selects the discrete metric
// (outputs must become exactly equal) rather than |·|.
//
// The perturbation keeps the support fixed and redistributes a mass of
// size step between the two extreme support values, scaled to an integer
// multiset of denominator `den`; functions like the average pass, while a
// threshold predicate Φ_r^ω with ν(ω) = r fails under the discrete metric —
// matching the paper's observation that Φ_r^ω is continuous in frequency
// iff r is irrational.
func ContinuousInFrequency(f Func, m *Args, discrete bool) bool {
	if m.Distinct() < 2 {
		return true
	}
	want := f.Eval(m)
	lo, hi := Min().Eval(m), Max().Eval(m)
	tolerance := 1e-6
	for _, den := range []int{64, 256, 1024, 4096} {
		// Move one unit of mass between the extreme values, in both
		// directions: the frequency function moves by 1/den in two
		// coordinates either way.
		for _, dir := range [][2]float64{{hi, lo}, {lo, hi}} {
			scaled := scaleToDenominator(m, den)
			if scaled.Count(dir[0]) < 2 {
				continue
			}
			perturbed := scaled.Entries()
			for i, e := range perturbed {
				switch e.Value {
				case dir[0]:
					perturbed[i].Count--
				case dir[1]:
					perturbed[i].Count++
				}
			}
			got := f.Eval(CountArgs(perturbed))
			err := math.Abs(got - want)
			if discrete {
				if err != 0 && den >= 1024 {
					return false
				}
			} else if err > tolerance+10*math.Abs(want)/float64(den)+4*(hi-lo)/float64(den) {
				return false
			}
		}
	}
	return true
}

func scaleToDenominator(m *Args, den int) *Args {
	k := den / m.Len()
	if k < 1 {
		k = 1
	}
	return m.Scale(k)
}
