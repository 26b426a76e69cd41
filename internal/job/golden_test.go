package job

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"anonnet/internal/faults"
)

// goldenSpecs cover every Spec, GraphSpec and faults.Plan field, the
// float values on each branch of encoding/json's number format (negative
// zero, the %e cutoffs, integers past 2⁵³ and the zero-padded digits of
// large integral values) and the integer lists.
var goldenSpecs = []struct {
	name string
	spec Spec
	hash string
}{
	{"ring defaults", Spec{Graph: GraphSpec{Builder: "ring", N: 8}, Kind: "od", Function: "average"},
		"a6cc0baccb140a9ff8cf64d69b0d8aed2a6d2bdc967a6c6f9810d782cc9745ee"},
	{"float values", Spec{Graph: GraphSpec{Builder: "ring", N: 10}, Kind: "bc", Function: "max",
		Values: []float64{math.Copysign(0, -1), 1e21, 1e-7, 1<<53 + 2, -(1 << 53), 123456789012345678901,
			0.1, -2.5, 5e-324, 1e20}},
		"6b1dee25c93af83f48a98bf7f48dadf8afe638dd8e687de0b864cf58760a119a"},
	{"bound row", Spec{Graph: GraphSpec{Builder: "hypercube", D: 3}, Kind: "sym", Row: "bound", BoundN: 12,
		Function: "average", Seed: -3},
		"c5b2c7087eb83aecb93548361ae4af9c53043e1f69b79d1a28163d3cea6120be"},
	{"leaders", Spec{Graph: GraphSpec{Builder: "star", N: 5}, Kind: "od", Row: "leader", Leaders: []int{3, 1, 1},
		Function: "count", MaxRounds: 77, Patience: 5},
		"b2ffbee17809072d526ab0cfb9ab042e8cf649393ab42159d43cdd9e5783fe72"},
	{"debruijn size", Spec{Graph: GraphSpec{Builder: "debruijn", K: 2, D: 3}, Kind: "op", Row: "size",
		Function: "mode", Values: []float64{1, 1, 2, 2, 3, 3, 4, 4}},
		"fb8ba1ca71c4b507237bbc592681401accc7b74f5c38cdb095a8ba88438fd5ae"},
	{"torus", Spec{Graph: GraphSpec{Builder: "torus", Rows: 3, Cols: 4}, Kind: "sym", Function: "sum", Seed: 9},
		"5663741fe69ea68a5ad828d06c77178fb4a2fa777fec2b0654fd720589e4b520"},
	{"random extra", Spec{Graph: GraphSpec{Builder: "random", N: 6, Extra: 4}, Kind: "od", Function: "average", Seed: 1 << 40},
		"5cce9a4ee0cbb08d80b57620fcab060350f4eab9591e7473b0b61ad1add0dc3a"},
	{"geometric radius", Spec{Graph: GraphSpec{Builder: "geometric", N: 5, Radius: 0.5}, Kind: "sym", Function: "max", Seed: 2},
		"ad136d680ae87cce92d536ec4605154610612cb0dfb28cda7f2f8dd24426d22e"},
	{"starts concurrent", Spec{Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "bc", Function: "max",
		Starts: []int{1, 3, 2, 1}, Concurrent: true},
		"423eb5cbc9a842cb94aece16cfa2030549dda1fc4935abfc22646b52c4ba7907"},
	{"faults churn guard", Spec{SchemaVersion: 3, Graph: GraphSpec{Builder: "ring", N: 6}, Kind: "sym", Function: "max",
		Faults: &faults.Plan{Drop: 0.2, Dup: 0.1, DelayP: 0.15, DelayMax: 3, Stall: 0.05, Crash: 0.01,
			Churn: &faults.ChurnPlan{Drop: 0.3, Window: 2, Guard: "repair"}}},
		"4afc4fbc08a853189ed3c93cefd38a120fcb13276d039ec5c88bdfa5eada90ba"},
	{"shard dynamic", Spec{SchemaVersion: 2, Graph: GraphSpec{Builder: "ring", N: 6}, Kind: "od", Function: "average",
		Engine: "shard", Shards: 3, Dynamic: true, MaxRounds: 500},
		"960c5bf12d3657b9a60b9f1bb0926e1000984f157d61946cc139bd5f4e2a9742"},
	{"vec shards randomdyn", Spec{SchemaVersion: 5, Graph: GraphSpec{Builder: "randomdyn", N: 7}, Kind: "od",
		Function: "average", Engine: "vec", Shards: 2, Seed: 42, Patience: 100},
		"8ede666126b3f8db464fa749d94814fe2746e7a0694a0956a6c550a0db6d0525"},
	{"model onebit", Spec{SchemaVersion: 6, Graph: GraphSpec{Builder: "bidiring", N: 4}, Model: "onebit",
		Function: "max", Values: []float64{0, 1, 1, 0}},
		"05acbe2ca56478110891f8abc0ff68f8f0ba63c9524b0f197dfaae1209cec317"},
	{"non-ASCII function", Spec{Graph: GraphSpec{Builder: "path", N: 3}, Kind: "od",
		Function: "Φ[1≥0.4714045207910317]", Values: []float64{1, 2, 1}},
		"53e82b6952560d3782230873d2c0adfbfb1e3ca0997e3319065bbe515e5af2c9"},
}

// TestSpecHashGolden pins spec hashes to absolute values: a consistent
// drift of the canonical encoder would pass every test that only compares
// specs with each other. The hashed encoding, default inputs written out,
// must also be json.Marshal's.
func TestSpecHashGolden(t *testing.T) {
	for _, g := range goldenSpecs {
		t.Run(g.name, func(t *testing.T) {
			c, err := g.spec.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			enc := appendCanonical(nil, c)
			_, hash := encodeCanonical(c)
			want, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			if string(enc) != string(want) {
				t.Fatalf("canonical encoding\n%s\njson.Marshal writes\n%s", enc, want)
			}
			if hash != g.hash {
				t.Fatalf("hash %s, want %s", hash, g.hash)
			}
			if h, err := g.spec.Hash(); err != nil || h != g.hash {
				t.Fatalf("Hash() = %s, %v; want %s", h, err, g.hash)
			}
		})
	}
}

// TestCanonicalEncoderWritesEveryField: the canonical encoder names the
// fields of Spec, GraphSpec, faults.Plan and faults.ChurnPlan by hand, so
// a field added later and left out of it would drop out of the hash. Set
// every exported field, through nested structs and pointers, and the
// encoding must still be json.Marshal's.
func TestCanonicalEncoderWritesEveryField(t *testing.T) {
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					fill(v.Field(i))
				}
			}
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem())
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			fill(v.Index(0))
			fill(v.Index(1))
		case reflect.Int, reflect.Int64:
			v.SetInt(7)
		case reflect.Float64:
			v.SetFloat(0.25)
		case reflect.String:
			v.SetString("x")
		case reflect.Bool:
			v.SetBool(true)
		default:
			t.Fatalf("no test value for a %s field", v.Type())
		}
	}
	var s Spec
	fill(reflect.ValueOf(&s).Elem())
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendCanonical(nil, s); string(got) != string(want) {
		t.Fatalf("canonical encoding\n%s\njson.Marshal writes\n%s", got, want)
	}
}

// TestNonFiniteRadiusRejected: the canonical encoder has no error path,
// so Canonical refuses the one float a Go caller can make non-finite.
func TestNonFiniteRadiusRejected(t *testing.T) {
	for _, r := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := Spec{Graph: GraphSpec{Builder: "geometric", N: 4, Radius: r}, Kind: "sym", Function: "max"}
		_, err := s.Canonical()
		assertField(t, err, "graph.radius")
		if _, err := Compile(s); err == nil {
			t.Fatalf("Compile accepted radius %v", r)
		}
	}
}
