package job

import (
	"bytes"
	"math"
	"slices"
	"strconv"
)

// One-pass JSON encoders for the n-vectors a job carries. The service
// encodes each result once and afterwards only copies the bytes — into the
// log, the LRU and every response — so these encoders must write exactly
// what encoding/json writes for the same values. encode_test.go holds
// them to it.

// AppendF64 appends the JSON encoding of f: the strings "NaN", "+Inf" and
// "-Inf" for non-finite values, and encoding/json's float64 format
// otherwise.
func AppendF64(dst []byte, f F64) []byte {
	v := float64(f)
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

// OutputsJSON returns the outputs array inside an encoded Result — one
// written by AppendResult or by encoding/json — as a sub-slice of enc, or
// nil when the outputs are null or empty or enc is not an encoded Result.
// The array holds only numbers and the non-finite strings, so its first
// ']' closes it.
func OutputsJSON(enc []byte) []byte {
	if !bytes.HasPrefix(enc, []byte(outputsKey+"[")) {
		return nil
	}
	arr := enc[len(outputsKey):]
	end := bytes.IndexByte(arr, ']')
	if end < 2 {
		return nil
	}
	return arr[:end+1]
}
