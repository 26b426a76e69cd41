package model

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestUnionIsOrderFree: folding any sets into one with SetUnion gives the
// same bits in every order, whether each set is merged on its own or all
// of them are added to one union, over an alphabet where cmp.Compare
// holds values of different bits equal (both zeros, two NaNs); the result
// is ascending and distinct, holds every operand value, Len counts it,
// and Grows reports a change exactly when the bits change.
func TestUnionIsOrderFree(t *testing.T) {
	alphabet := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(0x7ff8000000000001),
		math.Inf(-1), math.Inf(1), -1.5, 0.25, 2, 3}
	rng := rand.New(rand.NewSource(1))
	var u SetUnion
	union := func(base []float64, sets ...[]float64) []float64 {
		u.Reset(base)
		for _, s := range sets {
			u.Add(s)
		}
		before := bits(base)
		n := u.Len()
		out := u.AppendTo(nil)
		if len(out) != n {
			t.Fatalf("Len %d, union %v", n, out)
		}
		if u.Grows() == slices.Equal(before, bits(out)) {
			t.Fatalf("union of %v with %v reported Grows=%v for %v", base, sets, u.Grows(), out)
		}
		if len(sets) == 1 {
			checkTwoWay(t, base, sets[0], out)
		}
		return out
	}
	set := func() []float64 {
		var s []float64
		for _, v := range alphabet {
			if rng.Intn(3) == 0 {
				s = union(s, []float64{v})
			}
		}
		return s
	}
	for trial := 0; trial < 500; trial++ {
		sets := make([][]float64, 1+rng.Intn(5))
		for i := range sets {
			sets[i] = set()
		}
		var want []uint64
		for perm := 0; perm < 6; perm++ {
			rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
			acc := []float64{}
			for _, s := range sets {
				acc = union(acc, s)
			}
			if all := union(sets[0], sets[1:]...); !slices.Equal(bits(all), bits(acc)) {
				t.Fatalf("one union of %v is %v, merged one by one %v", sets, all, acc)
			}
			if !slices.IsSortedFunc(acc, cmp.Compare[float64]) || len(slices.CompactFunc(slices.Clone(acc), func(x, y float64) bool { return cmp.Compare(x, y) == 0 })) != len(acc) {
				t.Fatalf("union %v is not ascending and distinct", acc)
			}
			for _, s := range sets {
				for _, v := range s {
					if _, ok := slices.BinarySearchFunc(acc, v, cmp.Compare[float64]); !ok {
						t.Fatalf("union %v lost %v", acc, v)
					}
				}
			}
			if perm == 0 {
				want = bits(acc)
			} else if got := bits(acc); !slices.Equal(got, want) {
				t.Fatalf("trial %d: union bits %x in one order, %x in another", trial, got, want)
			}
		}
	}
}

// TestUnionMatchesSortedReference: on sets of up to 300 values, sparse
// and dense, the union of a base with several sets equals the reference
// — every value sorted, each class once, with its smallest bits — so the
// steps and the galloping through the base skip nothing.
func TestUnionMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	set := func() []float64 {
		var s []float64
		span, size := 1+rng.Intn(1000), rng.Intn(300)
		for range size {
			v := float64(rng.Intn(span)) - float64(span/3)
			if v == 0 && rng.Intn(2) == 0 {
				v = math.Copysign(0, -1)
			}
			s = append(s, v)
		}
		return normalize(s)
	}
	var u SetUnion
	for trial := 0; trial < 300; trial++ {
		base := set()
		all := slices.Clone(base)
		u.Reset(base)
		for k := range 1 + rng.Intn(4) {
			b := set()
			u.Add(b)
			all = append(all, b...)
			if k == 0 {
				checkTwoWay(t, base, b, normalize(slices.Concat(base, b)))
			}
		}
		want := normalize(all)
		if got := u.AppendTo(nil); !slices.Equal(bits(got), bits(want)) {
			t.Fatalf("trial %d: union %v, want %v", trial, got, want)
		}
		if u.Len() != len(want) {
			t.Fatalf("trial %d: Len %d, want %d", trial, u.Len(), len(want))
		}
	}
	// The two-way merge on the shapes a ring's sets take, and on both
	// kinds of value whose class holds other bits: NaN payloads and ±0 on
	// either side.
	negZero, nan1, nan2 := math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001)
	for _, tc := range []struct{ a, b []float64 }{
		{nil, nil},
		{nil, []float64{1, 2}},
		{[]float64{1, 2}, nil},
		{[]float64{1, 2, 3}, []float64{1, 2, 3}},
		{[]float64{1, 2}, []float64{3, 4}},
		{[]float64{3, 4}, []float64{1, 2}},
		{[]float64{1, 3, 5}, []float64{2, 4, 6}},
		{[]float64{1, 2}, []float64{0, 1}},
		{[]float64{negZero, 1}, []float64{0}},
		{[]float64{0, 1}, []float64{negZero}},
		{[]float64{negZero}, []float64{-1, negZero, 2}},
		{[]float64{nan2, 1}, []float64{nan1}},
		{[]float64{nan1, 1}, []float64{nan2, 2}},
		{[]float64{nan1}, nil},
		{nil, []float64{nan2, negZero}},
		{[]float64{nan2, negZero, 3}, []float64{nan1, 0, 3}},
	} {
		checkTwoWay(t, tc.a, tc.b, normalize(slices.Concat(tc.a, tc.b)))
	}
}

// checkTwoWay holds the two-way merge of the sets a and b to want, their
// union: AppendUnion writes its bits after what dst holds, into a dst
// sized by UnionLen without growing it, and reports growth exactly when
// the union's bits differ from a's, which Covers reports the other way.
func checkTwoWay(t *testing.T, a, b, want []float64) {
	t.Helper()
	if n := UnionLen(a, b); n != len(want) {
		t.Fatalf("UnionLen(%v, %v) = %d, want %d", a, b, n, len(want))
	}
	dst := make([]float64, 1, 1+len(want))
	dst[0] = -99
	got, grew := AppendUnion(dst, a, b)
	if !slices.Equal(bits(got[1:]), bits(want)) || got[0] != -99 {
		t.Fatalf("AppendUnion(%v, %v) = %v, want %v after the -99 already held", a, b, got, want)
	}
	if cap(got) != cap(dst) {
		t.Fatalf("AppendUnion(%v, %v) grew a dst sized for the union", a, b)
	}
	if changed := !slices.Equal(bits(a), bits(want)); grew != changed || Covers(a, b) == changed {
		t.Fatalf("union of %v with %v is %v: AppendUnion grew=%v, Covers=%v", a, b, want, grew, Covers(a, b))
	}
}

// normalize sorts s in cmp.Compare's order and keeps each class once,
// with its smallest bits.
func normalize(s []float64) []float64 {
	slices.SortFunc(s, func(x, y float64) int {
		if c := cmp.Compare(x, y); c != 0 {
			return c
		}
		return cmp.Compare(math.Float64bits(x), math.Float64bits(y))
	})
	return slices.CompactFunc(s, func(x, y float64) bool { return cmp.Compare(x, y) == 0 })
}

// TestUnionSeeksFarValues: a set adding values far apart in a large base
// finds each of them, at the base's ends and between its values.
func TestUnionSeeksFarValues(t *testing.T) {
	base := make([]float64, 1000)
	for i := range base {
		base[i] = float64(2 * i)
	}
	var u SetUnion
	u.Reset(base)
	u.Add([]float64{-1, 0, 2, 501, 1996, 1998, 1999})
	want := append(append([]float64{-1}, base[:251]...), 501)
	want = append(append(want, base[251:]...), 1999)
	if got := u.AppendTo(nil); !slices.Equal(got, want) {
		t.Fatalf("union holds %d values, want %d: %v", len(got), len(want), got[:8])
	}
}

func bits(s []float64) []uint64 {
	out := make([]uint64, len(s))
	for i, v := range s {
		out[i] = math.Float64bits(v)
	}
	return out
}
