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
		for range 1 + rng.Intn(4) {
			b := set()
			u.Add(b)
			all = append(all, b...)
		}
		want := normalize(all)
		if got := u.AppendTo(nil); !slices.Equal(bits(got), bits(want)) {
			t.Fatalf("trial %d: union %v, want %v", trial, got, want)
		}
		if u.Len() != len(want) {
			t.Fatalf("trial %d: Len %d, want %d", trial, u.Len(), len(want))
		}
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
