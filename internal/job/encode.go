package job

import (
	"bytes"
	"encoding/json"
	"math"
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
// writes for the same values. encode_test.go and golden_test.go hold
// them to it.

// maxExactInt is 2⁵³: every integer up to it in magnitude is a float64.
const maxExactInt = 1 << 53

// AppendF64 appends the JSON encoding of f: the strings "NaN", "+Inf" and
// "-Inf" for non-finite values, and encoding/json's float64 format
// otherwise.
func AppendF64(dst []byte, f F64) []byte {
	v := float64(f)
	// encoding/json writes an integral value up to 2⁵³ as its integer
	// digits, which need no shortest-digit search. Above 2⁵³ it pads the
	// shortest digits with zeros, and negative zero is "-0", so both take
	// the float path below.
	if i := int64(v); float64(i) == v && -maxExactInt <= i && i <= maxExactInt && (i != 0 || !math.Signbit(v)) {
		return strconv.AppendInt(dst, i, 10)
	}
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
	// Most outputs are short integers or fractions; reserve for that once
	// instead of growing the buffer element by element.
	dst = slices.Grow(dst, 8*len(v)+2)
	dst = append(dst, '[')
	for i, f := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendF64(dst, f)
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
		dst = append(appendKey(dst, "values"), '[')
		for i, v := range c.Values {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendF64(dst, F64(v))
		}
		dst = append(dst, ']')
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
