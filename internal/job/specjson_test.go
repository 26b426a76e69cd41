package job

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"anonnet/internal/model"
)

// keptSpec compiles s and checks the contract every kept spec encoding
// meets: its hash digests json.Marshal of the canonical spec with the
// values written out, and Decode of the kept bytes compiles back to the
// same hash and canonical spec.
func keptSpec(t *testing.T, s Spec) *Compiled {
	t.Helper()
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	full, err := json.Marshal(c.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(full); hex.EncodeToString(sum[:]) != c.Hash {
		t.Fatalf("hash %s does not digest the expanded canonical spec %s", c.Hash, full)
	}
	back, err := Decode(c.SpecJSON)
	if err != nil {
		t.Fatalf("kept spec %s: %v", c.SpecJSON, err)
	}
	bc, err := Compile(back)
	if err != nil {
		t.Fatalf("kept spec %s: %v", c.SpecJSON, err)
	}
	if bc.Hash != c.Hash || !reflect.DeepEqual(bc.Spec, c.Spec) {
		t.Fatalf("kept spec %s compiles to hash %s and spec %+v, want %s and %+v", c.SpecJSON, bc.Hash, bc.Spec, c.Hash, c.Spec)
	}
	return c
}

// TestSpecJSONLeavesDefaultInputsOut: under every registered model — the
// binary-input onebit, whose defaults alternate 0 and 1, included — a
// spec on default inputs keeps json.Marshal of its canonical form with
// Values cleared, and spelling the defaults out keeps the same bytes.
func TestSpecJSONLeavesDefaultInputsOut(t *testing.T) {
	for _, d := range model.Descriptors() {
		t.Run(d.Canon, func(t *testing.T) {
			s := Spec{Graph: GraphSpec{Builder: "bidiring", N: 6}, Kind: d.Canon, Function: "max", Seed: 3}
			c := keptSpec(t, s)
			if bytes.Contains(c.SpecJSON, []byte(`"values"`)) {
				t.Fatalf("kept spec carries the default inputs: %s", c.SpecJSON)
			}
			cleared := c.Spec
			cleared.Values = nil
			if want, err := json.Marshal(cleared); err != nil || string(c.SpecJSON) != string(want) {
				t.Fatalf("kept spec\n%s\nwant json.Marshal with values cleared\n%s (%v)", c.SpecJSON, want, err)
			}
			for i, v := range c.Spec.Values {
				if want := defaultInput(i, d.BinaryInputs); v != want {
					t.Fatalf("default input %d is %v, want %v", i, v, want)
				}
			}
			s.Values = append([]float64(nil), c.Spec.Values...)
			if e := keptSpec(t, s); e.Hash != c.Hash || string(e.SpecJSON) != string(c.SpecJSON) {
				t.Fatalf("explicit defaults keep %s (hash %s), want %s (hash %s)", e.SpecJSON, e.Hash, c.SpecJSON, c.Hash)
			}
		})
	}
}

// TestSpecJSONKeepsExplicitInputs: inputs that are not the defaults —
// reordered, fractional, or an explicit -0 where onebit's default is 0 —
// keep json.Marshal of the canonical spec, values written out.
func TestSpecJSONKeepsExplicitInputs(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Spec
	}{
		{"reversed", Spec{Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "bc", Function: "max",
			Values: []float64{4, 3, 2, 1}}},
		{"fractional", Spec{Graph: GraphSpec{Builder: "ring", N: 3}, Kind: "od", Function: "average",
			Values: []float64{1, 2.5, 3}}},
		{"onebit shifted", Spec{Graph: GraphSpec{Builder: "bidiring", N: 4}, Kind: "onebit", Function: "max",
			Values: []float64{1, 0, 1, 0}}},
		{"onebit negative zero", Spec{Graph: GraphSpec{Builder: "bidiring", N: 4}, Kind: "onebit", Function: "max",
			Values: []float64{math.Copysign(0, -1), 1, 0, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := keptSpec(t, tc.s)
			if want, err := json.Marshal(c.Spec); err != nil || string(c.SpecJSON) != string(want) {
				t.Fatalf("kept spec\n%s\nwant json.Marshal of the canonical spec\n%s (%v)", c.SpecJSON, want, err)
			}
		})
	}
}
