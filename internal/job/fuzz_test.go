package job

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"anonnet/internal/model"
)

// FuzzSpecCodec checks the JSON codec's safety properties, in the style of
// minbase's codec fuzzing: arbitrary bytes never panic; whatever Decode
// accepts either fails validation with a typed *Error or canonicalizes
// idempotently and round-trips through encode∘decode with an unchanged
// content hash.
func FuzzSpecCodec(f *testing.F) {
	seeds := []string{
		`{"graph":{"builder":"ring","n":8},"kind":"od","function":"average"}`,
		`{"graph":{"builder":"torus","rows":3,"cols":4},"kind":"sym","row":"size","function":"sum","seed":9}`,
		`{"graph":{"builder":"star","n":5},"kind":"od","row":"leader","leaders":[0,0,2],"function":"count"}`,
		`{"graph":{"builder":"randomdyn","n":6},"kind":"od","function":"average","max_rounds":50}`,
		`{"graph":{"builder":"hypercube","d":3},"kind":"op","function":"mode","values":[1,1,2,2,3,3,4,4]}`,
		`{"graph":{"builder":"ring","n":2},"kind":"bc","function":"max","starts":[1,3],"concurrent":true}`,
		`{"graph":{"builder":"geometric","n":4,"radius":0.5},"kind":"sym","row":"bound","bound_n":8,"function":"average"}`,
		`{"schema_version":3,"graph":{"builder":"ring","n":4},"kind":"od","function":"average","faults":{"drop":0.2,"dup":0.1,"delay_p":0.1,"delay_max":3}}`,
		`{"schema_version":3,"graph":{"builder":"ring","n":6},"kind":"sym","function":"max","faults":{"stall":0.1,"crash":0.05,"churn":{"drop":0.3,"window":2,"guard":"repair"}}}`,
		`{"graph":{"builder":"ring","n":4},"kind":"od","function":"average","faults":{}}`,
		`{"schema_version":2,"graph":{"builder":"ring","n":4},"kind":"od","function":"average","faults":{"drop":0.5}}`,
		`{"schema_version":3,"graph":{"builder":"ring","n":4},"kind":"op","function":"average","faults":{"churn":{"drop":0.2}}}`,
		`{"schema_version":3,"graph":{"builder":"ring","n":4},"kind":"od","function":"average","faults":{"drop":7}}`,
		`not json at all`,
		`{"graph":{"builder":"ring","n":1e99},"kind":"od","function":"average"}`,
		`{}`,
		`[1,2,3]`,
		`{"graph":{"builder":"ring","n":4},"kind":"od","function":"average"} //x`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			assertTyped(t, err)
			return
		}
		c, err := s.Canonical()
		if err != nil {
			assertTyped(t, err)
			return
		}
		h1, err := c.Hash()
		if err != nil {
			t.Fatalf("canonical spec failed to hash: %v", err)
		}
		// The hand-written canonical encoding is encoding/json's.
		enc := appendCanonical(nil, c)
		if want, err := json.Marshal(c); err != nil || string(enc) != string(want) {
			t.Fatalf("canonical encoding\n%s\njson.Marshal writes\n%s (%v)", enc, want, err)
		}
		// The encoding a job keeps, default inputs left out, decodes back
		// to the hash its compile digested.
		kept, hash := encodeCanonical(c)
		if hash != h1 {
			t.Fatalf("compile hash %q, Hash() %q", hash, h1)
		}
		if back, err := Decode(kept); err != nil {
			t.Fatalf("kept encoding %s rejected by Decode: %v", kept, err)
		} else if h, err := back.Hash(); err != nil || h != h1 {
			t.Fatalf("kept encoding %s hashes to %q, want %q (%v)", kept, h, h1, err)
		}
		// Canonicalization is idempotent on accepted specs.
		c2, err := c.Canonical()
		if err != nil {
			t.Fatalf("canonical spec rejected on re-canonicalization: %v", err)
		}
		h2, err := c2.Hash()
		if err != nil || h1 != h2 {
			t.Fatalf("canonicalization not idempotent: %q vs %q (%v)", h1, h2, err)
		}
		// decode∘encode is the identity on canonical forms.
		b, err := Encode(c)
		if err != nil {
			t.Fatalf("canonical spec failed to encode: %v", err)
		}
		back, err := Decode(b)
		if err != nil {
			t.Fatalf("canonical encoding rejected by Decode: %v", err)
		}
		h3, err := back.Hash()
		if err != nil || h3 != h1 {
			t.Fatalf("encode/decode changed the hash: %q vs %q (%v)", h1, h3, err)
		}
	})
}

// FuzzAppendF64 holds AppendF64 to encoding/json on every finite float64
// bit pattern.
func FuzzAppendF64(f *testing.F) {
	for _, v := range specialFloats {
		f.Add(math.Float64bits(v))
	}
	f.Add(uint64(1<<63 | 1<<62))
	f.Add(math.Float64bits(1<<53 + 2))
	f.Add(math.Float64bits(-(1 << 53)))
	f.Fuzz(func(t *testing.T, u uint64) {
		v := math.Float64frombits(u)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendF64(nil, F64(v)); string(got) != string(want) {
			t.Fatalf("AppendF64(%b) = %s, encoding/json writes %s", u, got, want)
		}
	})
}

// FuzzModelField fuzzes the two spellings of the communication model
// (the original "kind" field and the v6 "model" field) together with the
// declared schema version: parsing never panics, rejections are typed,
// and every accepted spec canonicalizes to a registered kind whose hash
// is stable under re-spelling through the model field.
func FuzzModelField(f *testing.F) {
	seeds := []struct {
		kind, model string
		version     int
	}{
		{"od", "", 0},
		{"", "onebit", 6},
		{"", "outdegree awareness", 6},
		{"ONEBIT", "", 0},
		{"telepathy", "", 6},
		{"od", "bc", 6},
		{"", "one-bit broadcast", 5},
		{" sym ", "", 0},
		{"", "", 0},
	}
	for _, s := range seeds {
		f.Add(s.kind, s.model, s.version)
	}
	f.Fuzz(func(t *testing.T, kindName, modelName string, version int) {
		s := Spec{
			SchemaVersion: version,
			Graph:         GraphSpec{Builder: "ring", N: 4},
			Kind:          kindName,
			Model:         modelName,
			Function:      "max",
		}
		c, err := s.Canonical()
		if err != nil {
			assertTyped(t, err)
			return
		}
		// The canonical form always spells the model through kind.
		if c.Model != "" {
			t.Fatalf("canonical form kept model=%q", c.Model)
		}
		if _, err := model.ParseKind(c.Kind); err != nil {
			t.Fatalf("canonical kind %q is not registered: %v", c.Kind, err)
		}
		h1, err := c.Hash()
		if err != nil {
			t.Fatalf("canonical spec failed to hash: %v", err)
		}
		// Re-spelling the canonical kind through the model field (at a
		// version that allows it) must not move the hash: both spellings
		// share one cache entry.
		alt := s
		alt.Kind, alt.Model = "", c.Kind
		if alt.SchemaVersion >= 1 && alt.SchemaVersion <= 5 {
			alt.SchemaVersion = SpecSchemaVersion
		}
		h2, err := alt.Hash()
		if err != nil {
			t.Fatalf("model-field respelling of accepted spec rejected: %v", err)
		}
		if h1 != h2 {
			t.Fatalf("model-field respelling moved the hash: %q vs %q", h1, h2)
		}
	})
}

func assertTyped(t *testing.T, err error) {
	t.Helper()
	var verr *Error
	if !errors.As(err, &verr) {
		t.Fatalf("rejection is not a typed *Error: %T %v", err, err)
	}
	if verr.Field == "" || verr.Reason == "" {
		t.Fatalf("typed error missing field/reason: %+v", verr)
	}
}
