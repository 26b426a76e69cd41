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
// distinct values in ascending order, each with its count. Every function
// walks the values in this one order, so f's value — down to the last bit
// of a floating-point sum — depends on the multiset alone, never on the
// order the inputs or messages arrived in (§2.2: agents are deterministic
// automata).
type Args struct {
	entries []Entry // ascending by Value, distinct, every Count ≥ 1
	n       int     // Σ Count
}

// NewArgs returns the multiset holding each of vals once per occurrence.
// vals is read, never written; an already-sorted slice is not copied.
func NewArgs(vals ...float64) *Args {
	if !slices.IsSorted(vals) {
		vals = slices.Clone(vals)
		slices.Sort(vals)
	}
	a := &Args{entries: make([]Entry, 0, len(vals))}
	for _, v := range vals {
		a.add(v, 1)
	}
	return a
}

// CountArgs returns the multiset giving each entry's value its count.
// Entries may come in any order and may repeat a value, whose counts then
// add; zero counts are dropped. A negative count panics: it has no
// multiset meaning.
func CountArgs(entries []Entry) *Args {
	sorted := slices.Clone(entries)
	slices.SortFunc(sorted, func(x, y Entry) int { return cmp.Compare(x.Value, y.Value) })
	a := &Args{entries: sorted[:0]}
	for _, e := range sorted {
		a.add(e.Value, e.Count)
	}
	return a
}

// add appends c occurrences of v, which is no smaller than every value
// already held. It may write a.entries in place: both constructors add
// into a slice they own, and add never runs ahead of its read position.
func (a *Args) add(v float64, c int) {
	if c < 0 {
		panic(fmt.Sprintf("funcs: negative count %d for %g", c, v))
	}
	if c == 0 {
		return
	}
	a.n += c
	if k := len(a.entries); k > 0 && a.entries[k-1].Value == v {
		a.entries[k-1].Count += c
		return
	}
	a.entries = append(a.entries, Entry{Value: v, Count: c})
}

// Len returns n, the number of occurrences counted with multiplicity.
func (a *Args) Len() int { return a.n }

// Distinct returns the number of distinct values (the support size).
func (a *Args) Distinct() int { return len(a.entries) }

// Entries returns the distinct values in ascending order with their
// counts. The slice is the multiset's own: read it, never write it.
func (a *Args) Entries() []Entry { return a.entries }

// Count returns the multiplicity of v.
func (a *Args) Count(v float64) int {
	i, ok := slices.BinarySearchFunc(a.entries, v, func(e Entry, v float64) int { return cmp.Compare(e.Value, v) })
	if !ok {
		return 0
	}
	return a.entries[i].Count
}

// Scale returns the multiset with every multiplicity multiplied by k > 0.
// Scaling preserves frequencies, so f(m) == f(m.Scale(k)) for every
// frequency-based f.
func (a *Args) Scale(k int) *Args {
	if k <= 0 {
		panic(fmt.Sprintf("funcs: Scale with non-positive factor %d", k))
	}
	out := &Args{entries: make([]Entry, len(a.entries)), n: a.n * k}
	for i, e := range a.entries {
		out.entries[i] = Entry{Value: e.Value, Count: e.Count * k}
	}
	return out
}
