package model

import (
	"cmp"
	"math"
	"slices"
)

// SetAgent is the optional contract behind the flooding kernel
// (engine.Flood): an agent whose state is the set of values it has heard,
// starting as its own input value; whose message, under every model, is
// that set (the one broadcast message, or the same message on every port);
// whose transition unions the received sets into its own with SetUnion; and
// whose output is f on the set. Such an agent is its set, so the kernel
// holds every agent's set in flat arenas and builds one agent of the
// execution, for f, instead of n.
//
// The contract is exact: an agent must behave identically whether driven
// through its sending function and Receive or through the kernel, and
// nothing but its input value (not the leader mark) may shape its set.
// The engine's differential tests hash both traces. The kernel holds no
// agents, so it takes no checkpoints: an agent whose runs must checkpoint
// does not implement SetAgent. A type that embeds a SetAgent inherits its
// methods but may override Send or Receive, so the kernel does not run
// it: only a type that declares the contract itself opts in.
type SetAgent interface {
	Agent
	// SetOutput returns the output of an agent whose set is set: f on
	// it. set is ascending and distinct, as SetUnion leaves it; the call must
	// not write it, and may use the agent as scratch (the kernel calls it
	// from one goroutine).
	SetOutput(set []float64) float64
	// CorruptValue returns the value Corrupt(junk) unions into the set,
	// for an agent that is also Corruptible.
	CorruptValue(junk int64) float64
}

// SetUnion is the union of a base set with any number of others, taken
// in one merge: Add collects the values of each set that the base lacks,
// and AppendTo sorts them once and merges them with the base. A set is
// ascending and distinct in cmp.Compare's order, which holds −0 and +0
// equal, and every NaN equal (a NaN sorts first). Of two values the order
// holds equal, a union keeps the one with the smaller bit pattern: a zero
// heard with both signs is +0. So the union of any sets, added in any
// order, has the same bits, and a transition built on SetUnion is a
// function of the received multiset (§2.2).
//
// A destination's union with k in-neighbours' sets writes the set once,
// not once per neighbour, and Add gallops past long runs of the
// base, so a small set added to a large one costs O(log) per value, not a
// scan of the base. The zero value is ready for Reset; a SetUnion reuses
// its buffer across Resets. The union of two sets alone needs no staging:
// AppendUnion writes it in one two-pointer pass under the same rules.
type SetUnion struct {
	base, add []float64
	sorted    bool // add is ascending, one value per class
}

// Reset makes base, an ascending and distinct set, the union's base, with
// nothing added. The union reads base and never writes it.
func (u *SetUnion) Reset(base []float64) {
	u.base, u.add, u.sorted = base, u.add[:0], true
}

// Add adds the ascending, distinct set b to the union. It reads b and
// keeps the values of it that the base lacks, or holds with a larger bit
// pattern.
func (u *SetUnion) Add(b []float64) {
	base := u.base
	if hasNaN(b) {
		if !hasNaN(base) || math.Float64bits(b[0]) < math.Float64bits(base[0]) {
			u.keep(b[0])
		}
		b = b[1:]
	}
	i := 0
	if hasNaN(base) {
		i = 1
	}
	// base[i:] and b hold no NaN, so < orders them.
	for _, v := range b {
		// Skip the base's values below v: a few by steps, then galloping.
		for k := 0; i < len(base) && base[i] < v; i++ {
			if k++; k == 8 {
				i = seek(base, i, v)
				break
			}
		}
		if i < len(base) && base[i] == v {
			if math.Float64bits(v) < math.Float64bits(base[i]) {
				u.keep(v) // +0 where the base holds −0
			}
			i++
			continue
		}
		u.keep(v)
	}
}

// keep adds v to the values the union adds to the base.
func (u *SetUnion) keep(v float64) {
	if n := len(u.add); n > 0 && !(u.add[n-1] < v) {
		u.sorted = false
	}
	u.add = append(u.add, v)
}

// Grows reports whether the union differs from the base.
func (u *SetUnion) Grows() bool { return len(u.add) > 0 }

// Len returns the number of values in the union. Only a NaN or a zero
// can share its class with a base value of other bits; Add keeps it only
// when its bits are the smaller, and it takes that value's place.
func (u *SetUnion) Len() int {
	u.sort()
	n := len(u.base) + len(u.add)
	if hasNaN(u.base) && hasNaN(u.add) {
		n--
	}
	if hasZero(u.base) && hasZero(u.add) {
		n--
	}
	return n
}

// AppendTo appends the union to dst and returns it; dst must not overlap
// the base or an added set's values.
func (u *SetUnion) AppendTo(dst []float64) []float64 {
	u.sort()
	base, add := u.base, u.add
	i, j := 0, 0
	for i < len(base) && j < len(add) {
		switch x, y := base[i], add[j]; cmp.Compare(x, y) {
		case -1:
			dst = append(dst, x)
			i++
		case 1:
			dst = append(dst, y)
			j++
		default: // Add kept y for its smaller bits
			dst = append(dst, y)
			i, j = i+1, j+1
		}
	}
	dst = append(dst, base[i:]...)
	return append(dst, add[j:]...)
}

// sort sorts the added values and keeps, of each class, the one with the
// smallest bit pattern.
func (u *SetUnion) sort() {
	if u.sorted {
		return
	}
	slices.Sort(u.add)
	w := 0
	for _, v := range u.add {
		if w > 0 && cmp.Compare(u.add[w-1], v) == 0 {
			if math.Float64bits(v) < math.Float64bits(u.add[w-1]) {
				u.add[w-1] = v
			}
			continue
		}
		u.add[w] = v
		w++
	}
	u.add, u.sorted = u.add[:w], true
}

// AppendUnion appends the union of the sets a and b to dst in one
// two-pointer pass, under SetUnion's rules — a NaN first, and of two
// values cmp.Compare holds equal the one with the smaller bit pattern —
// and reports whether the union differs from a. dst must not overlap a
// or b. It grows dst only when dst lacks room for |a|+|b| values and for
// the union (UnionLen), so a caller that sized dst for the union keeps its
// array.
func AppendUnion(dst, a, b []float64) ([]float64, bool) {
	if cap(dst)-len(dst) < len(a)+len(b) {
		dst = slices.Grow(dst, UnionLen(a, b))
	}
	// The union holds a, so it differs from a when it is longer, or when
	// it took a NaN or a zero of b for its smaller bits.
	w, n, size, smaller := dst[len(dst):cap(dst)], 0, len(a), false
	if hasNaN(a) || hasNaN(b) {
		switch {
		case !hasNaN(b):
			w[0] = a[0]
		case !hasNaN(a):
			w[0] = b[0]
		default:
			w[0], smaller = a[0], math.Float64bits(b[0]) < math.Float64bits(a[0])
			if smaller {
				w[0] = b[0]
			}
		}
		a, b, n = dropNaN(a), dropNaN(b), 1
	}
	// a and b hold no NaN from here on, so < orders them.
	for len(a) > 0 && len(b) > 0 {
		x, y := a[0], b[0]
		switch {
		case x < y:
			a = a[1:]
		case y < x:
			x, b = y, b[1:]
		default: // equal: only two zeros can differ in bits
			if math.Float64bits(y) < math.Float64bits(x) {
				x, smaller = y, true
			}
			a, b = a[1:], b[1:]
		}
		w[n] = x
		n++
	}
	// The tails are short on sets that grow by a few values a round, where
	// a loop beats a call to memmove.
	for _, x := range a {
		w[n] = x
		n++
	}
	for _, y := range b {
		w[n] = y
		n++
	}
	return dst[:len(dst)+n], n > size || smaller
}

// Covers reports whether the union of the sets a and b is a, bit for bit:
// every value of b is in a, with no smaller bit pattern. It writes nothing.
func Covers(a, b []float64) bool {
	if hasNaN(b) {
		if !hasNaN(a) || math.Float64bits(b[0]) < math.Float64bits(a[0]) {
			return false
		}
	}
	a, b = dropNaN(a), dropNaN(b)
	i := 0
	for _, y := range b {
		for i < len(a) && a[i] < y {
			i++
		}
		if i == len(a) || y < a[i] || math.Float64bits(y) < math.Float64bits(a[i]) {
			return false
		}
		i++
	}
	return true
}

// UnionLen returns the number of values in the union of the sets a and b:
// both counted, less the values they share a class of.
func UnionLen(a, b []float64) int {
	n := len(a) + len(b)
	if hasNaN(a) && hasNaN(b) {
		n--
	}
	a, b = dropNaN(a), dropNaN(b)
	for i, k := 0, 0; i < len(a) && k < len(b); {
		switch x, y := a[i], b[k]; {
		case x < y:
			i++
		case y < x:
			k++
		default:
			n--
			i, k = i+1, k+1
		}
	}
	return n
}

// dropNaN returns the set s without its NaN, which sorts first.
func dropNaN(s []float64) []float64 {
	if hasNaN(s) {
		return s[1:]
	}
	return s
}

// seek returns the index of the first value of s, at or after i, that v is
// not greater than, galloping from i: O(log d) comparisons for a value d
// places on. s[i:] and v hold no NaN.
func seek(s []float64, i int, v float64) int {
	step := 1
	hi := i
	for hi < len(s) && s[hi] < v {
		i = hi + 1
		hi += step
		step <<= 1
	}
	k, _ := slices.BinarySearch(s[i:min(hi, len(s))], v)
	return i + k
}

// hasNaN reports whether the set s holds a NaN, which sorts first.
func hasNaN(s []float64) bool { return len(s) > 0 && s[0] != s[0] }

// hasZero reports whether the set s holds a zero of either sign.
func hasZero(s []float64) bool {
	_, ok := slices.BinarySearch(s, 0)
	return ok
}
