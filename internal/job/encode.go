package job

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"unicode/utf8"

	"anonnet/internal/faults"
)

// One-pass JSON encoders for the n-vectors a job carries and the
// canonical spec that holds them. The spec hash digests the canonical
// encoding, and the service encodes each result once and afterwards only
// shares or copies the bytes — into the result index, the log and every
// response — so these encoders must write exactly what encoding/json
// writes for the same values. encode_test.go, fuzz_test.go and
// golden_test.go hold them to it.
//
// Most values a job writes are integers: the default inputs 1..n that
// every spec omitting values hashes, and the outputs of max, min and the
// counting functions. An integral value's digits are written in place
// from a two-digit table, with no strconv call and no temporary; a value
// one more than the non-negative integer of at most eight digits before
// it, as in 1..n, is written by adding one to that integer's digits, held
// in a register; and anything else takes strconv's shortest-digit float
// path value by value.

// maxExactInt is 2⁵³: every integer up to it in magnitude is a float64.
const maxExactInt = 1 << 53

// digitPairs holds the two-digit decimals 00 through 99.
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// exactInt returns v as an integer when encoding/json writes v as that
// integer's digits: v is integral, at most 2⁵³ in magnitude, and not
// negative zero. Above 2⁵³ encoding/json pads the shortest digits with
// zeros, and negative zero is "-0", so both take the float path.
func exactInt(v float64) (int64, bool) {
	i := int64(v)
	return i, float64(i) == v && -maxExactInt <= i && i <= maxExactInt && (i != 0 || !math.Signbit(v))
}

// AppendF64 appends the JSON encoding of f: the strings "NaN", "+Inf" and
// "-Inf" for non-finite values, and encoding/json's float64 format
// otherwise.
func AppendF64(dst []byte, f F64) []byte {
	if i, ok := exactInt(float64(f)); ok {
		return appendInt(dst, i)
	}
	return appendFloat(dst, float64(f))
}

// appendInt appends the decimal digits of i, at most 2⁵³ in magnitude,
// writing them in place from the last, two at a time.
func appendInt(dst []byte, i int64) []byte {
	u := uint64(i)
	if i < 0 {
		dst, u = append(dst, '-'), uint64(-i)
	}
	// The number of digits: log10(2)·bits, less one when u is below the
	// power of ten it rounds to, and one for zero.
	k := bits.Len64(u) * 1233 >> 12
	if u >= pow10[k] {
		k++
	}
	k = max(k, 1)
	n := len(dst)
	dst = slices.Grow(dst, k)[:n+k]
	d := dst[n:]
	for u >= 100 {
		q := u / 100
		r := 2 * (u - 100*q)
		k -= 2
		d[k], d[k+1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if u >= 10 {
		d[0], d[1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		d[0] = byte('0' + u)
	}
	return dst
}

// pow10[k] is 10^k, up to the 16 digits of 2⁵³.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16}

// A run's integer of at most eight digits is also held as a counter: its
// ASCII digits packed in a uint64, the last in the low byte. Adding one
// turns the trailing nines to zeros and adds one to the digit before them,
// in a register, and one eight-byte store writes the digits out.
const (
	counterNines = 0x3939393939393939 // "99999999"
	counterZeros = 0x3030303030303030 // "00000000"
)

// counter returns the counter of the digits d, at most eight.
func counter(d []byte) uint64 {
	var c uint64
	for _, b := range d {
		c = c<<8 | uint64(b)
	}
	return c
}

// succ returns the counter of the integer after the one of width digits
// whose counter is c, and its width; ok is false when that integer has
// more than eight digits.
func succ(c uint64, width int) (next uint64, w int, ok bool) {
	nines := bits.TrailingZeros64(c^counterNines) >> 3
	if nines < width {
		low := uint64(1)<<(8*nines) - 1
		return c - (0x0909090909090909 & low) + low + 1, width, true
	}
	if width == 8 {
		return 0, 0, false
	}
	return '1'<<(8*width) | counterZeros&(1<<(8*width)-1), width + 1, true
}

// appendCounter appends the width digits of the counter c.
func appendCounter(dst []byte, c uint64, width int) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 8)
	binary.BigEndian.PutUint64(dst[n:n+8], c<<(64-8*width))
	return dst[:n+width]
}

// appendFloat appends the JSON encoding of a value exactInt refuses.
func appendFloat(dst []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(dst, `"NaN"`...)
	case math.IsInf(v, 1):
		return append(dst, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(dst, `"-Inf"`...)
	}
	// encoding/json writes ES6 number strings: %f, except %e below 1e-6
	// and from 1e21 up, with a one-digit exponent left unpadded.
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// AppendVector appends the JSON array of v, or null for a nil v.
func AppendVector(dst []byte, v []F64) []byte {
	if v == nil {
		return append(dst, "null"...)
	}
	return appendValues(dst, v)
}

// appendValues appends the JSON array of v, each value as AppendF64
// writes it, in one pass: an integer one more than the non-negative
// integer before it is that integer's digits plus one.
func appendValues[T ~float64](dst []byte, v []T) []byte {
	// Most values are short integers or fractions; reserve for that once
	// instead of growing the buffer element by element. (slices.Grow
	// would also do, but under the race detector it allocates the room
	// twice.)
	if need := 8*len(v) + 2; cap(dst)-len(dst) < need {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	dst = append(dst, '[')
	// When run is set, the last value written is a non-negative integer
	// of width digits, at most eight, whose counter is digits, and next is
	// that integer plus one.
	var digits uint64
	run, width, next := false, 0, 0.0
	for k, x := range v {
		if k > 0 {
			dst = append(dst, ',')
		}
		f := float64(x)
		if run && f == next {
			if digits, width, run = succ(digits, width); run {
				dst, next = appendCounter(dst, digits, width), f+1
				continue
			}
		}
		i, ok := exactInt(f)
		if !ok {
			dst, run = appendFloat(dst, f), false
			continue
		}
		at := len(dst)
		dst = appendInt(dst, i)
		if width = len(dst) - at; 0 <= i && width <= 8 {
			digits, run, next = counter(dst[at:]), true, f+1
		} else {
			run = false
		}
	}
	return append(dst, ']')
}

// AppendString appends s as encoding/json writes a string. Builder,
// model and function names, IDs, hashes and states are plain ASCII and
// are copied as they are; anything that needs an escape, an HTML-safe
// form or a UTF-8 check goes through encoding/json itself.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendKey appends an object member's key and colon, after a comma
// unless the member opens the object.
func appendKey(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, key...)
	return append(dst, '"', ':')
}

// appendInts appends the JSON array of v.
func appendInts(dst []byte, v []int) []byte {
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// appendCanonical appends the JSON encoding of a canonical spec,
// byte-identical to json.Marshal(c): the fields in declaration order,
// under encoding/json's omitempty rules. A canonical spec holds only
// finite floats, so no value takes AppendF64's non-finite strings.
func appendCanonical(dst []byte, c Spec) []byte {
	dst = append(dst, '{')
	if c.SchemaVersion != 0 {
		dst = strconv.AppendInt(appendKey(dst, "schema_version"), int64(c.SchemaVersion), 10)
	}
	dst = appendGraph(appendKey(dst, "graph"), c.Graph)
	for _, f := range [...]struct{ key, s string }{{"kind", c.Kind}, {"model", c.Model}, {"row", c.Row}} {
		if f.s != "" {
			dst = AppendString(appendKey(dst, f.key), f.s)
		}
	}
	if c.BoundN != 0 {
		dst = strconv.AppendInt(appendKey(dst, "bound_n"), int64(c.BoundN), 10)
	}
	if len(c.Leaders) > 0 {
		dst = appendInts(appendKey(dst, "leaders"), c.Leaders)
	}
	dst = AppendString(appendKey(dst, "function"), c.Function)
	if len(c.Values) > 0 {
		dst = appendValues(appendKey(dst, "values"), c.Values)
	}
	if c.Seed != 0 {
		dst = strconv.AppendInt(appendKey(dst, "seed"), c.Seed, 10)
	}
	if c.MaxRounds != 0 {
		dst = strconv.AppendInt(appendKey(dst, "max_rounds"), int64(c.MaxRounds), 10)
	}
	if c.Patience != 0 {
		dst = strconv.AppendInt(appendKey(dst, "patience"), int64(c.Patience), 10)
	}
	if c.Dynamic {
		dst = append(appendKey(dst, "dynamic"), "true"...)
	}
	if c.Concurrent {
		dst = append(appendKey(dst, "concurrent"), "true"...)
	}
	if c.Engine != "" {
		dst = AppendString(appendKey(dst, "engine"), c.Engine)
	}
	if c.Shards != 0 {
		dst = strconv.AppendInt(appendKey(dst, "shards"), int64(c.Shards), 10)
	}
	if len(c.Starts) > 0 {
		dst = appendInts(appendKey(dst, "starts"), c.Starts)
	}
	if c.Faults != nil {
		dst = appendPlan(appendKey(dst, "faults"), c.Faults)
	}
	return append(dst, '}')
}

// appendGraph appends the JSON encoding of g, as json.Marshal writes it.
func appendGraph(dst []byte, g GraphSpec) []byte {
	dst = AppendString(append(dst, `{"builder":`...), g.Builder)
	for _, f := range [...]struct {
		key string
		v   int
	}{{"n", g.N}, {"k", g.K}, {"d", g.D}, {"rows", g.Rows}, {"cols", g.Cols}, {"extra", g.Extra}} {
		if f.v != 0 {
			dst = strconv.AppendInt(appendKey(dst, f.key), int64(f.v), 10)
		}
	}
	if g.Radius != 0 {
		dst = AppendF64(appendKey(dst, "radius"), F64(g.Radius))
	}
	return append(dst, '}')
}

// appendPlan appends the JSON encoding of a validated fault plan, whose
// probabilities are finite, as json.Marshal writes it.
func appendPlan(dst []byte, p *faults.Plan) []byte {
	dst = append(dst, '{')
	for _, f := range [...]struct {
		key string
		v   float64
	}{{"drop", p.Drop}, {"dup", p.Dup}, {"delay_p", p.DelayP}} {
		if f.v != 0 {
			dst = AppendF64(appendKey(dst, f.key), F64(f.v))
		}
	}
	if p.DelayMax != 0 {
		dst = strconv.AppendInt(appendKey(dst, "delay_max"), int64(p.DelayMax), 10)
	}
	if p.Stall != 0 {
		dst = AppendF64(appendKey(dst, "stall"), F64(p.Stall))
	}
	if p.Crash != 0 {
		dst = AppendF64(appendKey(dst, "crash"), F64(p.Crash))
	}
	if ch := p.Churn; ch != nil {
		dst = AppendF64(append(appendKey(dst, "churn"), `{"drop":`...), F64(ch.Drop))
		if ch.Window != 0 {
			dst = strconv.AppendInt(append(dst, `,"window":`...), int64(ch.Window), 10)
		}
		if ch.Guard != "" {
			dst = AppendString(append(dst, `,"guard":`...), ch.Guard)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// outputsKey opens every encoded Result: Outputs is its first field and
// is never omitted.
const outputsKey = `{"outputs":`

// AppendResult appends the JSON encoding of r, byte-identical to
// json.Marshal(r).
func AppendResult(dst []byte, r *Result) []byte {
	if r == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, outputsKey...)
	dst = AppendVector(dst, r.Outputs)
	dst = append(dst, `,"stable":`...)
	dst = strconv.AppendBool(dst, r.Stable)
	if r.StabilizedAt != 0 {
		dst = append(dst, `,"stabilized_at":`...)
		dst = strconv.AppendInt(dst, int64(r.StabilizedAt), 10)
	}
	dst = append(dst, `,"rounds":`...)
	dst = strconv.AppendInt(dst, int64(r.Rounds), 10)
	dst = append(dst, `,"expected":`...)
	dst = AppendF64(dst, r.Expected)
	dst = append(dst, `,"max_err":`...)
	dst = AppendF64(dst, r.MaxErr)
	dst = append(dst, `,"messages":`...)
	dst = strconv.AppendInt(dst, r.Messages, 10)
	if f := r.Faults; f != nil {
		dst = append(dst, `,"faults":{"dropped":`...)
		dst = strconv.AppendInt(dst, f.Dropped, 10)
		dst = append(dst, `,"duplicated":`...)
		dst = strconv.AppendInt(dst, f.Duplicated, 10)
		dst = append(dst, `,"delayed":`...)
		dst = strconv.AppendInt(dst, f.Delayed, 10)
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// EncodeResult returns the JSON encoding of r, as AppendResult writes
// it, in a slice of its own. AppendResult reserves by estimate, eight
// bytes an output, so the encoding is written in a pooled scratch buffer
// and returned as an exact-size copy that shares no memory with the
// scratch: a service keeps a result's bytes as long as the jobs that hold
// it, and the unused reserve would live as long. A scratch buffer over
// maxPooledEncoding is left to the GC, as encodeCanonical leaves its own.
func EncodeResult(r *Result) []byte {
	buf := encodeScratch.Get().(*[]byte)
	enc := AppendResult((*buf)[:0], r)
	out := bytes.Clone(enc)
	if cap(enc) <= maxPooledEncoding {
		*buf = enc
		encodeScratch.Put(buf)
	}
	return out
}

// Summarize reads an encoded Result — one written by AppendResult or by
// encoding/json — without decoding its outputs. outputs is the outputs
// array as a sub-slice of enc, nil when the outputs are null or empty; the
// array holds only numbers and the non-finite strings, so its first ']'
// closes it. rounds and maxErr are decoded from the fields after the
// array alone. ok is false when enc is not an encoded Result.
func Summarize(enc []byte) (outputs []byte, rounds int, maxErr F64, ok bool) {
	rest, found := bytes.CutPrefix(enc, []byte(outputsKey))
	if !found {
		return nil, 0, 0, false
	}
	switch {
	case bytes.HasPrefix(rest, []byte("null")):
		rest = rest[len("null"):]
	case bytes.HasPrefix(rest, []byte("[")):
		end := bytes.IndexByte(rest, ']')
		if end < 0 {
			return nil, 0, 0, false
		}
		if end > 1 {
			outputs = rest[:end+1]
		}
		rest = rest[end+1:]
	default:
		return nil, 0, 0, false
	}
	// Decode the object with its outputs spliced out as null.
	var tail struct {
		Rounds int `json:"rounds"`
		MaxErr F64 `json:"max_err"`
	}
	if json.Unmarshal(append([]byte(outputsKey+"null"), rest...), &tail) != nil {
		return nil, 0, 0, false
	}
	return outputs, tail.Rounds, tail.MaxErr, true
}
