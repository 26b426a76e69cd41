package funcs

import (
	"cmp"
	"fmt"
	"slices"
)

// Entry is one distinct value of a multiset with its multiplicity.
type Entry struct {
	Value float64
	Count int
}

// Args is a distributed input: the multiset [ω_1, …, ω_n], held as its
// distinct values in ascending order with a parallel slice of their
// counts, which is nil when every count is 1 — a set. Every function
// walks the values in this one order, so f's value — down to the last bit
// of a floating-point sum — depends on the multiset alone, never on the
// order the inputs or messages arrived in (§2.2: agents are deterministic
// automata).
//
// NewArgs, CountArgs and Scale build a multiset of their own and copy what
// they are given. Set is the one constructor that aliases its input: the
// view reads the caller's slice in place.
type Args struct {
	vals   []float64 // ascending, distinct
	counts []int     // counts[i] ≥ 1 is vals[i]'s multiplicity; nil when all are 1
	n      int       // Σ counts
}

// Set returns the set holding each of vals once, as a view of vals: it
// copies nothing and allocates nothing, so an agent that already holds
// its set ascending and distinct evaluates a set-based f on it in place.
// vals must be ascending and distinct, and the caller must not write it
// while the view is in use.
func Set(vals []float64) Args { return Args{vals: vals, n: len(vals)} }

// NewArgs returns the multiset holding each of vals once per occurrence.
// vals is read, never written, and never aliased: the multiset is a copy.
func NewArgs(vals ...float64) *Args {
	if !slices.IsSorted(vals) {
		vals = slices.Clone(vals)
		slices.Sort(vals)
	}
	a := &Args{vals: make([]float64, 0, len(vals))}
	for _, v := range vals {
		a.add(v, 1)
	}
	return a
}

// CountArgs returns the multiset giving each entry's value its count.
// Entries may come in any order and may repeat a value, whose counts then
// add; zero counts are dropped. A negative count panics: it has no
// multiset meaning. entries is read, never written, and never aliased.
func CountArgs(entries []Entry) *Args {
	byValue := func(x, y Entry) int { return cmp.Compare(x.Value, y.Value) }
	if !slices.IsSortedFunc(entries, byValue) {
		entries = slices.Clone(entries)
		slices.SortFunc(entries, byValue)
	}
	a := &Args{vals: make([]float64, 0, len(entries))}
	for _, e := range entries {
		a.add(e.Value, e.Count)
	}
	return a
}

// add appends c occurrences of v, which is no smaller than every value
// already held. The count slice is made — every earlier count 1 — the
// first time a count other than 1 arrives.
func (a *Args) add(v float64, c int) {
	if c < 0 {
		panic(fmt.Sprintf("funcs: negative count %d for %g", c, v))
	}
	if c == 0 {
		return
	}
	a.n += c
	k := len(a.vals)
	if k > 0 && a.vals[k-1] == v {
		a.ones(k)[k-1] += c
		return
	}
	a.vals = append(a.vals, v)
	if c != 1 || a.counts != nil {
		a.counts = append(a.ones(k), c)
	}
}

// ones returns the count slice of the first k values, making it, all 1,
// while the multiset is still a set.
func (a *Args) ones(k int) []int {
	if a.counts == nil {
		a.counts = make([]int, k, cap(a.vals))
		for i := range a.counts {
			a.counts[i] = 1
		}
	}
	return a.counts
}

// count returns the multiplicity of the i-th distinct value.
func (a *Args) count(i int) int {
	if a.counts == nil {
		return 1
	}
	return a.counts[i]
}

// Len returns n, the number of occurrences counted with multiplicity.
func (a *Args) Len() int { return a.n }

// Distinct returns the number of distinct values (the support size).
func (a *Args) Distinct() int { return len(a.vals) }

// Values returns the distinct values in ascending order. The slice is the
// multiset's own — for a Set view, the viewed slice: read it, never write
// it.
func (a *Args) Values() []float64 { return a.vals }

// Entries returns the distinct values in ascending order with their
// counts, in a slice of the caller's own.
func (a *Args) Entries() []Entry {
	out := make([]Entry, len(a.vals))
	for i, v := range a.vals {
		out[i] = Entry{Value: v, Count: a.count(i)}
	}
	return out
}

// Count returns the multiplicity of v.
func (a *Args) Count(v float64) int {
	i, ok := slices.BinarySearch(a.vals, v)
	if !ok {
		return 0
	}
	return a.count(i)
}

// Scale returns the multiset with every multiplicity multiplied by k > 0.
// Scaling preserves frequencies, so f(m) == f(m.Scale(k)) for every
// frequency-based f.
func (a *Args) Scale(k int) *Args {
	if k <= 0 {
		panic(fmt.Sprintf("funcs: Scale with non-positive factor %d", k))
	}
	out := &Args{vals: slices.Clone(a.vals), counts: make([]int, len(a.vals)), n: a.n * k}
	for i := range out.counts {
		out.counts[i] = a.count(i) * k
	}
	return out
}
