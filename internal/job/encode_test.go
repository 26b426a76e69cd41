package job

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refF64 is F64 with the MarshalJSON it had before the one-pass encoders:
// encoding/json's own float64 encoding behind the non-finite strings. The
// encoders are held to encoding/json's rendering under it.
type refF64 float64

func (f refF64) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// refResult is Result with every F64 as refF64.
type refResult struct {
	Outputs      []refF64     `json:"outputs"`
	Stable       bool         `json:"stable"`
	StabilizedAt int          `json:"stabilized_at,omitempty"`
	Rounds       int          `json:"rounds"`
	Expected     refF64       `json:"expected"`
	MaxErr       refF64       `json:"max_err"`
	Messages     int64        `json:"messages"`
	Faults       *FaultCounts `json:"faults,omitempty"`
}

func refVector(v []F64) []refF64 {
	if v == nil {
		return nil
	}
	out := make([]refF64, len(v))
	for i, f := range v {
		out[i] = refF64(f)
	}
	return out
}

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// specialFloats sit on every branch of encoding/json's float format: the
// signed zeros, the non-finite strings, both sides of the 1e-6 and 1e21
// %f/%e cutoffs, the smallest subnormal and the largest finite value.
var specialFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	1e-7, 9.99e-7, 1e-6, 1e21, 9.99e20, -1e21, -1e-7,
	5e-324, math.MaxFloat64, -math.MaxFloat64, 0.1, 1, -2.5, 12345678,
}

// randomFloats returns n seeded random bit patterns, NaN payloads and
// subnormals included.
func randomFloats(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(rng.Uint64())
	}
	return out
}

// integralFloats are the integral values around the integer fast path's
// edges: every integer within 2,000 of ±2⁵³ and the powers of ten up to
// the %e cutoff and past it, with their negations.
func integralFloats() []float64 {
	var out []float64
	for d := -2000.0; d <= 2000; d++ {
		out = append(out, maxExactInt+d, -maxExactInt+d)
	}
	for p := 1.0; p < 1e25; p *= 10 {
		out = append(out, p, -p)
	}
	return out
}

func TestAppendF64MatchesEncodingJSON(t *testing.T) {
	for _, v := range append(append(specialFloats, integralFloats()...), randomFloats(100_000)...) {
		want := mustMarshal(t, refF64(v))
		if got := string(AppendF64(nil, F64(v))); got != want {
			t.Fatalf("AppendF64(%b) = %s, encoding/json writes %s", math.Float64bits(v), got, want)
		}
		if got := mustMarshal(t, F64(v)); got != want {
			t.Fatalf("F64(%b).MarshalJSON = %s, want %s", math.Float64bits(v), got, want)
		}
	}
}

func TestAppendVectorMatchesEncodingJSON(t *testing.T) {
	floats := randomFloats(1000)
	vectors := map[string][]F64{"nil": nil, "empty": {}, "one": {F64(math.NaN())}}
	for name, fs := range map[string][]float64{"special": specialFloats, "random": floats} {
		v := make([]F64, len(fs))
		for i, f := range fs {
			v[i] = F64(f)
		}
		vectors[name] = v
	}
	for name, v := range vectors {
		t.Run(name, func(t *testing.T) {
			if got, want := string(AppendVector(nil, v)), mustMarshal(t, refVector(v)); got != want {
				t.Fatalf("AppendVector = %s, want %s", got, want)
			}
			// As a struct field, plain and omitempty, through encoding/json
			// with F64's own MarshalJSON.
			type plain struct {
				V []F64 `json:"v"`
			}
			type refPlain struct {
				V []refF64 `json:"v"`
			}
			type omit struct {
				V []F64 `json:"v,omitempty"`
			}
			type refOmit struct {
				V []refF64 `json:"v,omitempty"`
			}
			if got, want := mustMarshal(t, plain{v}), mustMarshal(t, refPlain{refVector(v)}); got != want {
				t.Fatalf("field = %s, want %s", got, want)
			}
			if got, want := mustMarshal(t, omit{v}), mustMarshal(t, refOmit{refVector(v)}); got != want {
				t.Fatalf("omitempty field = %s, want %s", got, want)
			}
		})
	}
}

func TestAppendResultMatchesEncodingJSON(t *testing.T) {
	outputs := make([]F64, 0, len(specialFloats))
	for _, f := range specialFloats {
		outputs = append(outputs, F64(f))
	}
	results := []*Result{
		nil,
		{},
		{Outputs: []F64{}, Stable: true, StabilizedAt: 3, Rounds: 7, Expected: 2.5, MaxErr: 0, Messages: 1 << 40},
		{Outputs: outputs, Rounds: 1_000_000, Expected: F64(math.NaN()), MaxErr: F64(math.Inf(1)), Messages: 12,
			Faults: &FaultCounts{Dropped: 1, Duplicated: 2, Delayed: 3}},
	}
	for i, r := range results {
		var ref *refResult
		if r != nil {
			ref = &refResult{Outputs: refVector(r.Outputs), Stable: r.Stable, StabilizedAt: r.StabilizedAt,
				Rounds: r.Rounds, Expected: refF64(r.Expected), MaxErr: refF64(r.MaxErr), Messages: r.Messages, Faults: r.Faults}
		}
		want := mustMarshal(t, ref)
		enc := AppendResult(nil, r)
		if string(enc) != want {
			t.Fatalf("result %d: AppendResult = %s, want %s", i, enc, want)
		}
		// Summarize reads the encoding back: the outputs sub-slice is the
		// vector's own encoding, or nil when a stream line would omit it,
		// and rounds and max error are the result's. A nil Result's
		// "null" is no encoded Result.
		outputs, rounds, maxErr, ok := Summarize(enc)
		if r == nil {
			if ok || outputs != nil {
				t.Fatalf("result %d: Summarize(%s) = %s, ok %v; want nil, false", i, enc, outputs, ok)
			}
			continue
		}
		wantOutputs := ""
		if len(r.Outputs) > 0 {
			wantOutputs = mustMarshal(t, refVector(r.Outputs))
		}
		if !ok || string(outputs) != wantOutputs || rounds != r.Rounds ||
			string(AppendF64(nil, maxErr)) != string(AppendF64(nil, r.MaxErr)) {
			t.Fatalf("result %d: Summarize = %s, %d, %v, ok %v; want %s, %d, %v",
				i, outputs, rounds, maxErr, ok, wantOutputs, r.Rounds, r.MaxErr)
		}
	}
}

// TestEncodeResultOwnsItsBytes: EncodeResult writes what AppendResult
// writes, and the slice it returns shares no memory with its pooled
// scratch buffer — encoding results of other sizes after it, as a worker
// does job after job on a sweep whose ring sizes change, leaves its bytes
// as they were.
func TestEncodeResultOwnsItsBytes(t *testing.T) {
	result := func(n int, shift float64) *Result {
		out := make([]F64, n)
		for i := range out {
			out[i] = F64(float64(i) + shift)
		}
		return &Result{Outputs: out, Stable: true, Rounds: 2, Expected: F64(n), Messages: int64(2 * n)}
	}
	first := result(12_047, 0.5)
	enc := EncodeResult(first)
	want := string(AppendResult(nil, first))
	if string(enc) != want {
		t.Fatalf("EncodeResult differs from AppendResult: %.60s…, want %.60s…", enc, want)
	}
	for _, r := range []*Result{result(7_952, 1), result(12_047, 3), result(10_000, 0)} {
		if got, want := string(EncodeResult(r)), string(AppendResult(nil, r)); got != want {
			t.Fatalf("EncodeResult of n=%d differs from AppendResult", len(r.Outputs))
		}
		if string(enc) != want {
			t.Fatalf("encoding an n=%d result changed an earlier n=%d result's bytes", len(r.Outputs), len(first.Outputs))
		}
	}
}

// TestSummarizeForeignBytes: bytes that are not an encoded Result are
// refused and yield no outputs rather than a wrong slice.
func TestSummarizeForeignBytes(t *testing.T) {
	for _, b := range []string{"", "null", `{"stable":true}`, `{"outputs":[1,2`, `{"r":1}`, `{"outputs":[1]`,
		`{"outputs":[1],"stable":true,"rounds":1.5,"expected":1,"max_err":0,"messages":0}`} {
		if outputs, rounds, maxErr, ok := Summarize([]byte(b)); ok || outputs != nil || rounds != 0 || maxErr != 0 {
			t.Fatalf("Summarize(%s) = %s, %d, %v, ok %v; want nil, 0, 0, false", b, outputs, rounds, maxErr, ok)
		}
	}
	// Null outputs are no outputs, in an object that is still a Result.
	if outputs, _, _, ok := Summarize([]byte(`{"outputs":null}`)); !ok || outputs != nil {
		t.Fatalf(`Summarize({"outputs":null}) = %s, ok %v; want nil, true`, outputs, ok)
	}
}

// valueShapes are the n-vectors the encoder benchmarks write: the
// integers 1..n of the default inputs and of max outputs, which take
// AppendF64's integer path, and two non-integral shapes, which pay its
// integer check before the float path — the short fractions i+0.5 and the
// 16–17-digit fractions (i+1)/3 that averages produce.
var valueShapes = []struct {
	name string
	v    func(i int) float64
}{
	{"integral", func(i int) float64 { return float64(i + 1) }},
	{"half", func(i int) float64 { return float64(i) + 0.5 }},
	{"thirds", func(i int) float64 { return float64(i+1) / 3 }},
}

func BenchmarkAppendResult(b *testing.B) {
	for _, n := range []int{10, 10_000} {
		for _, shape := range valueShapes {
			r := &Result{Outputs: make([]F64, n), Rounds: 2, Expected: F64(n)}
			for i := range r.Outputs {
				r.Outputs[i] = F64(shape.v(i))
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, shape.name), func(b *testing.B) {
				b.ReportAllocs()
				var buf []byte
				for i := 0; i < b.N; i++ {
					buf = AppendResult(buf[:0], r)
				}
			})
		}
	}
}

// BenchmarkCompile admits a bc max job on an n-ring, whose canonical
// encoding Compile writes and hashes. Its integral inputs 1..n encode as
// perfbench's spec, which leaves them to the default.
func BenchmarkCompile(b *testing.B) {
	for _, n := range []int{10, 10_000} {
		for _, shape := range valueShapes {
			spec := Spec{Graph: GraphSpec{Builder: "ring", N: n}, Kind: "bc", Function: "max", MaxRounds: 2, Patience: 2,
				Values: make([]float64, n)}
			for i := range spec.Values {
				spec.Values[i] = shape.v(i)
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, shape.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Compile(spec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
