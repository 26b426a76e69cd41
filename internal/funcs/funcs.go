// Package funcs implements the function classes at the heart of the paper's
// characterization (§2.3): set-based ⊊ frequency-based ⊊ multiset-based
// functions of a distributed input, a library of canonical representatives
// (max, average, sum, threshold-frequency predicates Φ_r^ω, …), a black-box
// classifier, and the δ-continuity-in-frequency test of §5.4.
//
// Inputs are multisets over Ω = float64: by Lemma 3.3 every computable
// function is multiset-based, so a multiset argument loses no generality.
package funcs

import (
	"fmt"
	"math"
)

// Class orders the three function classes of §2.3 by inclusion.
type Class int

// The classes, smallest first.
const (
	// SetBased functions depend only on the set of input values (max, min).
	SetBased Class = iota + 1
	// FrequencyBased functions depend on values and their relative
	// frequencies but not multiplicities (average, mode, quantiles,
	// threshold predicates).
	FrequencyBased
	// MultisetBased functions depend on the full multiset (sum, count) —
	// the largest class computable by any anonymous network (Lemma 3.3).
	MultisetBased
)

// String names the class as the paper does.
func (c Class) String() string {
	switch c {
	case SetBased:
		return "set-based"
	case FrequencyBased:
		return "frequency-based"
	case MultisetBased:
		return "multiset-based"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Contains reports class inclusion: every set-based function is
// frequency-based, every frequency-based function is multiset-based.
func (c Class) Contains(other Class) bool { return other <= c }

// Func is a function f : ⋃_n Ω^n → ℝ that is invariant under permutation
// (multiset-based), annotated with the smallest class it belongs to.
type Func struct {
	// Name identifies the function in reports.
	Name string
	// Class is the smallest of the three classes containing the function.
	Class Class
	// Eval computes f on a non-empty multiset of arguments.
	Eval func(args *Args) float64
}

// FromVector evaluates f on a plain input vector. A vector strictly
// increasing under < is the set NewArgs would build from it, so f reads
// it in place through a Set view instead of a copy.
func (f Func) FromVector(v []float64) float64 {
	for i := 1; i < len(v); i++ {
		if !(v[i-1] < v[i]) {
			return f.Eval(NewArgs(v...))
		}
	}
	s := Set(v)
	return f.Eval(&s)
}

// Max returns the maximum function, the canonical set-based example.
func Max() Func {
	return Func{Name: "max", Class: SetBased, Eval: func(a *Args) float64 {
		return a.vals[len(a.vals)-1]
	}}
}

// Min returns the minimum function (set-based).
func Min() Func {
	return Func{Name: "min", Class: SetBased, Eval: func(a *Args) float64 {
		return a.vals[0]
	}}
}

// SupportSize returns |{ω_1, …, ω_n}| (set-based).
func SupportSize() Func {
	return Func{Name: "support-size", Class: SetBased, Eval: func(a *Args) float64 {
		return float64(a.Distinct())
	}}
}

// Range returns max − min (set-based).
func Range() Func {
	return Func{Name: "range", Class: SetBased, Eval: func(a *Args) float64 {
		return Max().Eval(a) - Min().Eval(a)
	}}
}

// Average returns the mean (ω_1 + … + ω_n)/n, the paper's canonical
// frequency-based function.
func Average() Func {
	return Func{Name: "average", Class: FrequencyBased, Eval: func(a *Args) float64 {
		return Sum().Eval(a) / float64(a.n)
	}}
}

// FrequencyOf returns ν_v(ω), the relative frequency of ω (frequency-based).
func FrequencyOf(omega float64) Func {
	return Func{Name: fmt.Sprintf("freq(%g)", omega), Class: FrequencyBased, Eval: func(a *Args) float64 {
		return float64(a.Count(omega)) / float64(a.Len())
	}}
}

// ThresholdFreq returns the threshold frequency predicate Φ_r^ω of §5.4:
// 1 if ν_v(ω) ≥ r, else 0. It is frequency-based; it is δ₀-continuous in
// frequency iff r is irrational.
func ThresholdFreq(omega, r float64) Func {
	return Func{Name: fmt.Sprintf("Φ[%g≥%g]", omega, r), Class: FrequencyBased, Eval: func(a *Args) float64 {
		if float64(a.Count(omega))/float64(a.Len()) >= r {
			return 1
		}
		return 0
	}}
}

// Mode returns the most frequent value, ties resolved to the smallest —
// frequency-based: it depends on relative frequencies only.
func Mode() Func {
	return Func{Name: "mode", Class: FrequencyBased, Eval: func(a *Args) float64 {
		best := 0
		for i := range a.vals {
			if a.count(i) > a.count(best) { // ascending walk: a tie keeps the smaller
				best = i
			}
		}
		return a.vals[best]
	}}
}

// Median returns the lower median of the sorted input (frequency-based:
// quantiles are determined by the frequency function).
func Median() Func {
	return Func{Name: "median", Class: FrequencyBased, Eval: func(a *Args) float64 {
		k := (a.n - 1) / 2
		for i, v := range a.vals {
			c := a.count(i)
			if k < c {
				return v
			}
			k -= c
		}
		panic("funcs: median of an empty multiset")
	}}
}

// Variance returns the population variance Σ(ω_i − μ)²/n — frequency-based:
// both moments are determined by the frequency function.
func Variance() Func {
	return Func{Name: "variance", Class: FrequencyBased, Eval: func(a *Args) float64 {
		mu := Average().Eval(a)
		s := 0.0
		for i, v := range a.vals {
			d := v - mu
			s += d * d * float64(a.count(i))
		}
		return s / float64(a.n)
	}}
}

// GeometricMean returns (Πω_i)^{1/n} for positive inputs (frequency-based);
// non-positive inputs yield NaN, in line with the real-valued definition.
func GeometricMean() Func {
	return Func{Name: "geomean", Class: FrequencyBased, Eval: func(a *Args) float64 {
		s := 0.0
		for i, v := range a.vals {
			s += math.Log(v) * float64(a.count(i))
		}
		return math.Exp(s / float64(a.n))
	}}
}

// Sum returns ω_1 + … + ω_n, the paper's canonical multiset-based function
// that is not frequency-based.
func Sum() Func {
	return Func{Name: "sum", Class: MultisetBased, Eval: func(a *Args) float64 {
		s := 0.0
		for i, v := range a.vals {
			s += v * float64(a.count(i))
		}
		return s
	}}
}

// Count returns n, the network size (multiset-based; counting is the
// classic application of the leader variants of §4.5/§5.5).
func Count() Func {
	return Func{Name: "count", Class: MultisetBased, Eval: func(a *Args) float64 {
		return float64(a.Len())
	}}
}

// MultiplicityOf returns |v⁻¹(ω)|, the absolute multiplicity of ω
// (multiset-based).
func MultiplicityOf(omega float64) Func {
	return Func{Name: fmt.Sprintf("mult(%g)", omega), Class: MultisetBased, Eval: func(a *Args) float64 {
		return float64(a.Count(omega))
	}}
}

// Catalog returns the library of named functions used across the
// experiments, covering each class.
func Catalog() []Func {
	return []Func{
		Min(), Max(), SupportSize(), Range(),
		Average(), Mode(), Median(), Variance(), GeometricMean(),
		FrequencyOf(1), ThresholdFreq(1, math.Sqrt2/3),
		Sum(), Count(), MultiplicityOf(1),
	}
}
