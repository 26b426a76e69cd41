package funcs

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func args(vals ...float64) *Args { return NewArgs(vals...) }

func TestClassOrdering(t *testing.T) {
	if !MultisetBased.Contains(SetBased) || !MultisetBased.Contains(FrequencyBased) {
		t.Fatal("multiset-based must contain the smaller classes")
	}
	if !FrequencyBased.Contains(SetBased) {
		t.Fatal("frequency-based must contain set-based")
	}
	if SetBased.Contains(FrequencyBased) || FrequencyBased.Contains(MultisetBased) {
		t.Fatal("class inclusion must be strict")
	}
	for _, c := range []Class{SetBased, FrequencyBased, MultisetBased} {
		if c.String() == "" {
			t.Fatal("empty class name")
		}
	}
}

func TestCatalogEvaluations(t *testing.T) {
	in := args(1, 1, 2, 7)
	cases := []struct {
		f    Func
		want float64
	}{
		{Min(), 1},
		{Max(), 7},
		{SupportSize(), 3},
		{Range(), 6},
		{Average(), 2.75},
		{Mode(), 1},
		{Median(), 1}, // lower median of (1,1,2,7)
		{FrequencyOf(1), 0.5},
		{ThresholdFreq(1, 0.4), 1},
		{ThresholdFreq(1, 0.6), 0},
		{Sum(), 11},
		{Count(), 4},
		{MultiplicityOf(1), 2},
	}
	for _, c := range cases {
		if got := c.f.Eval(in); got != c.want {
			t.Errorf("%s(1,1,2,7) = %v, want %v", c.f.Name, got, c.want)
		}
	}
}

func TestFromVector(t *testing.T) {
	if got := Sum().FromVector([]float64{1, 2, 3}); got != 6 {
		t.Fatalf("FromVector = %v, want 6", got)
	}
}

func TestDeclaredClassesAreMinimal(t *testing.T) {
	// Every catalog function's declared class must match black-box
	// classification on a generic universe.
	universe := []float64{1, 2, 3, 5}
	rng := rand.New(rand.NewSource(9))
	for _, f := range Catalog() {
		got := Classify(f, universe, 200, rng)
		if got != f.Class {
			t.Errorf("%s: classified as %v, declared %v", f.Name, got, f.Class)
		}
	}
}

func TestClassifyDegenerate(t *testing.T) {
	if got := Classify(Sum(), nil, 10, rand.New(rand.NewSource(1))); got != MultisetBased {
		t.Fatalf("degenerate classify = %v, want multiset-based fallback", got)
	}
}

func TestModeTieBreak(t *testing.T) {
	if got := Mode().Eval(args(2, 2, 1, 1)); got != 1 {
		t.Fatalf("mode tie = %v, want 1 (smallest)", got)
	}
}

func TestFrequencyInvariance(t *testing.T) {
	// Frequency-based functions agree on scaled multisets; sum does not.
	base := args(1, 2, 2)
	for _, f := range []Func{Average(), Mode(), Median(), FrequencyOf(2)} {
		if f.Eval(base) != f.Eval(base.Scale(4)) {
			t.Errorf("%s not scale-invariant", f.Name)
		}
	}
	if Sum().Eval(base) == Sum().Eval(base.Scale(4)) {
		t.Error("sum unexpectedly scale-invariant")
	}
}

func TestSetInvariance(t *testing.T) {
	a, b := args(1, 5, 5, 5), args(1, 1, 1, 5)
	for _, f := range []Func{Min(), Max(), SupportSize(), Range()} {
		if f.Eval(a) != f.Eval(b) {
			t.Errorf("%s not set-invariant", f.Name)
		}
	}
	if Average().Eval(a) == Average().Eval(b) {
		t.Error("average unexpectedly set-invariant")
	}
}

func TestContinuousInFrequency(t *testing.T) {
	m := args(1, 1, 2, 2, 2, 3)
	if !ContinuousInFrequency(Average(), m, false) {
		t.Error("average should be continuous in frequency")
	}
	// Threshold at a rational hit exactly by ν: discontinuous under the
	// discrete metric (the paper: Φ continuous iff r irrational).
	atBoundary := args(1, 1, 2) // ν(1) = 2/3
	if ContinuousInFrequency(ThresholdFreq(1, 2.0/3), atBoundary, true) {
		t.Error("rational-threshold predicate at the boundary should be discontinuous")
	}
	if !ContinuousInFrequency(ThresholdFreq(1, math.Sqrt2/2), atBoundary, true) {
		t.Error("irrational-threshold predicate should be continuous at this input")
	}
	if !ContinuousInFrequency(Average(), args(5), false) {
		t.Error("single-value input is trivially continuous")
	}
}

func TestVarianceAndGeometricMean(t *testing.T) {
	in := args(1, 1, 4)
	if got := Variance().Eval(in); math.Abs(got-2) > 1e-12 {
		t.Fatalf("variance(1,1,4) = %v, want 2", got)
	}
	if got := GeometricMean().Eval(args(2, 8)); math.Abs(got-4) > 1e-12 {
		t.Fatalf("geomean(2,8) = %v, want 4", got)
	}
	// Frequency invariance.
	for _, f := range []Func{Variance(), GeometricMean()} {
		if math.Abs(f.Eval(in)-f.Eval(in.Scale(3))) > 1e-12 {
			t.Errorf("%s not scale-invariant", f.Name)
		}
	}
}

func TestArgsBasicOperations(t *testing.T) {
	a := args(3, 1, 2, 3, 2, 3)
	if a.Len() != 6 || a.Distinct() != 3 {
		t.Fatalf("Len %d Distinct %d, want 6 and 3", a.Len(), a.Distinct())
	}
	if want := []Entry{{1, 1}, {2, 2}, {3, 3}}; !slices.Equal(a.Entries(), want) {
		t.Fatalf("Entries = %v, want %v", a.Entries(), want)
	}
	if a.Count(3) != 3 || a.Count(4) != 0 {
		t.Fatalf("Count(3) = %d, Count(4) = %d, want 3 and 0", a.Count(3), a.Count(4))
	}
}

func TestCountArgsMergesAndDropsZero(t *testing.T) {
	a := CountArgs([]Entry{{7, 2}, {1, 0}, {2, 1}, {7, 1}})
	if want := []Entry{{2, 1}, {7, 3}}; !slices.Equal(a.Entries(), want) || a.Len() != 4 {
		t.Fatalf("Entries = %v (Len %d), want %v (Len 4)", a.Entries(), a.Len(), want)
	}
}

func TestCountArgsNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a negative count did not panic")
		}
	}()
	CountArgs([]Entry{{1, -1}})
}

func TestNewArgsLeavesInputUntouched(t *testing.T) {
	in := []float64{3, 1, 2, 1}
	args(in...)
	if want := []float64{3, 1, 2, 1}; !slices.Equal(in, want) {
		t.Fatalf("NewArgs wrote its input: %v, want %v", in, want)
	}
}

// TestEvalIgnoresInputOrder: f sees the multiset alone, so every
// permutation of fractional inputs — whose float sums depend on the order
// the terms are added in — gives the same bits.
func TestEvalIgnoresInputOrder(t *testing.T) {
	in := []float64{0.1, 0.7, 2.3, 1.9, 0.3, 3.7, 0.7, 1e-9, 1e9}
	rng := rand.New(rand.NewSource(3))
	for _, f := range Catalog() {
		want := math.Float64bits(f.FromVector(in))
		for trial := 0; trial < 50; trial++ {
			perm := slices.Clone(in)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			if got := math.Float64bits(f.FromVector(perm)); got != want {
				t.Fatalf("%s(%v) = %v, want %v as for %v", f.Name, perm, math.Float64frombits(got), math.Float64frombits(want), in)
			}
		}
	}
}

// TestSetEvalAllocatesNothing: a Set view is read in place, so every
// set-based catalog function evaluates on it without allocating — and
// agrees with the copying constructor on the same set.
func TestSetEvalAllocatesNothing(t *testing.T) {
	vals := []float64{-4.25, 0.1, 1, 2.3, 1e9}
	set := Set(vals)
	checked := 0
	for _, f := range Catalog() {
		if f.Class != SetBased {
			continue
		}
		checked++
		var got float64
		if allocs := testing.AllocsPerRun(100, func() { got = f.Eval(&set) }); allocs != 0 {
			t.Errorf("%s on a Set view allocates %v times, want 0", f.Name, allocs)
		}
		if want := f.FromVector(vals); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s on a Set view = %v, want %v", f.Name, got, want)
		}
	}
	if checked == 0 {
		t.Fatal("the catalog has no set-based function")
	}
}

// TestSetViewsItsInput: Set copies nothing — its values are the caller's
// slice — while NewArgs never aliases the slice it is given.
func TestSetViewsItsInput(t *testing.T) {
	vals := []float64{1, 2, 5}
	set := Set(vals)
	if got := set.Values(); &got[0] != &vals[0] || set.Len() != 3 || set.Distinct() != 3 || set.Count(2) != 1 {
		t.Fatalf("Set(%v) = values %v at a copy or with Len %d, Distinct %d, Count(2) %d", vals, got, set.Len(), set.Distinct(), set.Count(2))
	}
	if got := NewArgs(vals...).Values(); &got[0] == &vals[0] {
		t.Fatal("NewArgs aliases its input")
	}
}
