package job

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"testing"

	"anonnet/internal/faults"
	"anonnet/internal/model"
)

func ringAverageSpec() Spec {
	return Spec{
		Graph:    GraphSpec{Builder: "ring", N: 8},
		Kind:     "od",
		Function: "average",
		Values:   []float64{3, 1, 4, 1, 5, 9, 2, 6},
		Seed:     1,
	}
}

func TestCanonicalDefaults(t *testing.T) {
	s := Spec{Graph: GraphSpec{Builder: "Ring", N: 4}, Kind: "outdegree", Function: "Average"}
	c, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Graph.Builder != "ring" || c.Kind != "od" || c.Row != "nohelp" || c.Function != "average" {
		t.Fatalf("normalization failed: %+v", c)
	}
	if len(c.Values) != 4 || c.Values[0] != 1 || c.Values[3] != 4 {
		t.Fatalf("default values not materialized: %v", c.Values)
	}
	if c.MaxRounds != 10000 || c.Patience != 2*4+10 {
		t.Fatalf("default budgets not materialized: max_rounds=%d patience=%d", c.MaxRounds, c.Patience)
	}
	// Dynamic settings run asymptotic algorithms that plateau long before
	// converging; their stabilization window scales quadratically.
	d := Spec{Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Function: "average", Dynamic: true}
	cd, err := d.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if cd.Patience != 4*4+2*4+10 {
		t.Fatalf("dynamic patience default: got %d, want %d", cd.Patience, 4*4+2*4+10)
	}
	// Canonicalization is idempotent.
	c2, err := c.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	h1, err1 := c.Hash()
	h2, err2 := c2.Hash()
	if err1 != nil || err2 != nil || h1 != h2 {
		t.Fatalf("canonical not idempotent: %q vs %q (%v, %v)", h1, h2, err1, err2)
	}
}

func TestHashInsensitiveToSpelling(t *testing.T) {
	a := Spec{Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Function: "average"}
	b := Spec{Graph: GraphSpec{Builder: "RING", N: 4}, Kind: "outdegree", Row: "none",
		Function: "AVERAGE", Values: []float64{1, 2, 3, 4}, MaxRounds: 10000, Patience: 18}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("equivalent specs hash differently:\n%s\n%s", ha, hb)
	}
	// Every help-row alias hashes as the row it names.
	for alias, row := range map[string]string{"None": "nohelp", "n": "size", "LEADERS": "leader"} {
		x := Spec{Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Row: alias, Leaders: []int{0}, Function: "max"}
		y := x
		y.Row = row
		hx, errx := x.Hash()
		hy, erry := y.Hash()
		if errx != nil || erry != nil || hx != hy {
			t.Errorf("row %q and %q hash %s, %s (%v, %v)", alias, row, hx, hy, errx, erry)
		}
	}
	// A semantic difference must change the hash.
	c := a
	c.Seed = 7
	hc, err := c.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Fatal("seed change did not change the hash")
	}
}

// TestSchemaVersionHashCompat pins the versioning contract: stating
// schema_version (1 or 2) or naming the default engines explicitly must
// not change the canonical hash, so cache keys minted before versioning
// stay valid.
func TestSchemaVersionHashCompat(t *testing.T) {
	base := ringAverageSpec()
	ref, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	same := []Spec{
		func() Spec { s := base; s.SchemaVersion = 1; return s }(),
		func() Spec { s := base; s.SchemaVersion = 2; return s }(),
		func() Spec { s := base; s.SchemaVersion = 2; s.Engine = "seq"; return s }(),
		func() Spec { s := base; s.Engine = "sequential"; return s }(),
	}
	for i, s := range same {
		h, err := s.Hash()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if h != ref {
			t.Fatalf("variant %d hashes %q, want the version-1 hash %q", i, h, ref)
		}
	}
	// engine=conc folds into the version-1 concurrent flag: the v2
	// spelling and the v1 spelling share one cache entry.
	v1 := base
	v1.Concurrent = true
	v2 := base
	v2.SchemaVersion = 2
	v2.Engine = "conc"
	h1, err1 := v1.Hash()
	h2, err2 := v2.Hash()
	if err1 != nil || err2 != nil || h1 != h2 {
		t.Fatalf("engine=conc (%q) does not hash like concurrent=true (%q): %v %v", h2, h1, err1, err2)
	}
	if h1 == ref {
		t.Fatal("concurrent flag must change the hash (it always did)")
	}
	// The sharded engine is new semantics, hence a new hash.
	sh := base
	sh.Engine = "shard"
	hs, err := sh.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hs == ref || hs == h1 {
		t.Fatal("engine=shard must hash distinctly")
	}
}

// TestVecEngineHash pins version 4's side of the contract: declaring
// schema_version 3 or 4 without new features keeps the version-1 hash,
// engine=vec (and its "vectorized" spelling) hashes distinctly from every
// older engine, and naming vec under a declared pre-4 version is an error
// rather than a silently reinterpreted spec.
func TestVecEngineHash(t *testing.T) {
	base := ringAverageSpec()
	ref, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{3, 4, 5} {
		s := base
		s.SchemaVersion = v
		h, err := s.Hash()
		if err != nil {
			t.Fatalf("schema_version %d: %v", v, err)
		}
		if h != ref {
			t.Fatalf("schema_version %d hashes %q, want the version-1 hash %q", v, h, ref)
		}
	}
	vec := base
	vec.Engine = "vec"
	hv, err := vec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []string{"", "conc", "shard"} {
		s := base
		s.Engine = other
		if other == "conc" {
			s.Concurrent = true
			s.Engine = ""
		}
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h == hv {
			t.Fatalf("engine=vec hashes like %q", other)
		}
	}
	spelled := base
	spelled.Engine = "vectorized"
	spelled.SchemaVersion = 4
	hs, err := spelled.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hs != hv {
		t.Fatalf("engine=vectorized at v4 hashes %q, engine=vec hashes %q", hs, hv)
	}
}

// TestRunVecEngine runs engine=vec on a vectorizable job (dynamic Push-Sum
// average) and on a non-vectorizable one (the static minimum-base
// pipeline, which falls back to the sequential engine); both must
// reproduce the sequential results exactly — fallback and kernel alike are
// trace-identical, so the engine choice can never change an answer.
func TestRunVecEngine(t *testing.T) {
	specs := []Spec{
		{Graph: GraphSpec{Builder: "splitring", N: 8}, Kind: "od", Function: "average",
			Values: []float64{3, 1, 4, 1, 5, 9, 2, 6}, Seed: 7, MaxRounds: 3000},
		ringAverageSpec(),
	}
	for _, base := range specs {
		t.Run(base.Graph.Builder, func(t *testing.T) {
			vecSpec := base
			vecSpec.Engine = "vec"
			vc, err := Compile(vecSpec)
			if err != nil {
				t.Fatal(err)
			}
			if vc.Spec.Engine != "vec" {
				t.Fatalf("canonical engine = %q, want vec", vc.Spec.Engine)
			}
			sc, err := Compile(base)
			if err != nil {
				t.Fatal(err)
			}
			vres, err := Run(context.Background(), vc, nil)
			if err != nil {
				t.Fatal(err)
			}
			sres, err := Run(context.Background(), sc, nil)
			if err != nil {
				t.Fatal(err)
			}
			if vres.Rounds != sres.Rounds || vres.StabilizedAt != sres.StabilizedAt ||
				vres.Messages != sres.Messages {
				t.Fatalf("vec %+v diverges from sequential %+v", vres, sres)
			}
			for i := range vres.Outputs {
				if vres.Outputs[i] != sres.Outputs[i] {
					t.Fatalf("output %d: vec %v, sequential %v", i, vres.Outputs[i], sres.Outputs[i])
				}
			}
		})
	}
}

// TestVecShardsV5 pins version 5's side of the contract: shards becomes
// legal with engine=vec (selecting the parallel vectorized kernel), the
// combination hashes distinctly from plain vec, an explicit version-5
// declaration hashes like the unversioned spelling, and the parallel run
// reproduces the sequential trace exactly.
func TestVecShardsV5(t *testing.T) {
	base := Spec{Graph: GraphSpec{Builder: "splitring", N: 8}, Kind: "od", Function: "average",
		Values: []float64{3, 1, 4, 1, 5, 9, 2, 6}, Seed: 7, MaxRounds: 3000}
	par := base
	par.Engine = "vec"
	par.Shards = 3
	hp, err := par.Hash()
	if err != nil {
		t.Fatal(err)
	}
	plain := base
	plain.Engine = "vec"
	hv, err := plain.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hp == hv {
		t.Fatal("vec+shards must hash distinctly from plain vec")
	}
	declared := par
	declared.SchemaVersion = 5
	hd, err := declared.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hd != hp {
		t.Fatalf("declared v5 hashes %q, unversioned vec+shards hashes %q", hd, hp)
	}
	pc, err := Compile(par)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Spec.Engine != "vec" || pc.Spec.Shards != 3 {
		t.Fatalf("canonical engine fields: %+v", pc.Spec)
	}
	sc, err := Compile(base)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := Run(context.Background(), pc, nil)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := Run(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Rounds != sres.Rounds || pres.StabilizedAt != sres.StabilizedAt ||
		pres.Messages != sres.Messages {
		t.Fatalf("parallel vec %+v diverges from sequential %+v", pres, sres)
	}
	for i := range pres.Outputs {
		if pres.Outputs[i] != sres.Outputs[i] {
			t.Fatalf("output %d: parallel vec %v, sequential %v", i, pres.Outputs[i], sres.Outputs[i])
		}
	}
}

func TestCompileShardedEngine(t *testing.T) {
	s := ringAverageSpec()
	s.Engine = "shard"
	s.Shards = 3
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if c.Spec.Engine != "shard" || c.Spec.Shards != 3 {
		t.Fatalf("canonical engine fields: %+v", c.Spec)
	}
	res, err := Run(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Fatalf("sharded run not stable: %+v", res)
	}
	// Same spec through the sequential engine gives the same trace, so the
	// results agree exactly.
	seq, err := Compile(ringAverageSpec())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(context.Background(), seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != ref.Rounds || res.StabilizedAt != ref.StabilizedAt {
		t.Fatalf("sharded %+v diverges from sequential %+v", res, ref)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name  string
		spec  Spec
		field string
	}{
		{"unknown builder", Spec{Graph: GraphSpec{Builder: "moebius", N: 4}, Kind: "od", Function: "average"}, "graph.builder"},
		{"bad size", Spec{Graph: GraphSpec{Builder: "ring"}, Kind: "od", Function: "average"}, "graph.n"},
		{"too large", Spec{Graph: GraphSpec{Builder: "ring", N: MaxAgents + 1}, Kind: "od", Function: "average"}, "graph"},
		{"torus too large", Spec{Graph: GraphSpec{Builder: "torus", Rows: 1024, Cols: 1025}, Kind: "bc", Function: "max"}, "graph"},
		{"torus rows overflow", Spec{Graph: GraphSpec{Builder: "torus", Rows: 1<<62 + 1, Cols: 4}, Kind: "bc", Function: "max"}, "graph.rows"},
		{"torus cols overflow", Spec{Graph: GraphSpec{Builder: "torus", Rows: 4, Cols: 1<<62 + 1}, Kind: "bc", Function: "max"}, "graph.rows"},
		{"debruijn alphabet", Spec{Graph: GraphSpec{Builder: "debruijn", K: 1 << 30, D: 0}, Kind: "bc", Function: "max"}, "graph.k"},
		{"debruijn too large", Spec{Graph: GraphSpec{Builder: "debruijn", K: 2, D: 21}, Kind: "bc", Function: "max"}, "graph.d"},
		{"stray param", Spec{Graph: GraphSpec{Builder: "ring", N: 4, K: 2}, Kind: "od", Function: "average"}, "graph.k"},
		{"bad kind", Spec{Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "telepathy", Function: "average"}, "kind"},
		{"bad row", Spec{Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Row: "oracle", Function: "average"}, "row"},
		{"bad function", Spec{Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Function: "entropy"}, "function"},
		{"bound too small", Spec{Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Row: "bound", BoundN: 2, Function: "average"}, "bound_n"},
		{"stray bound", Spec{Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", BoundN: 9, Function: "average"}, "bound_n"},
		{"leaderless leader row", Spec{Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Row: "leader", Function: "average"}, "leaders"},
		{"leader out of range", Spec{Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Row: "leader", Leaders: []int{4}, Function: "average"}, "leaders"},
		{"wrong value count", Spec{Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Function: "average", Values: []float64{1}}, "values"},
		{"nan value", Spec{Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Function: "average", Values: []float64{1, 2, 3, math.NaN()}}, "values"},
		{"round ceiling", Spec{Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Function: "average", MaxRounds: MaxRoundsCeiling + 1}, "max_rounds"},
		{"bad starts", Spec{Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Function: "average", Starts: []int{0, 1, 1, 1}}, "starts"},
		{"dynamic ports", Spec{Graph: GraphSpec{Builder: "splitring", N: 4}, Kind: "op", Function: "average"}, "kind"},
		{"future schema", Spec{SchemaVersion: SpecSchemaVersion + 1, Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Function: "average"}, "schema_version"},
		{"v1 with engine", Spec{SchemaVersion: 1, Engine: "shard", Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Function: "average"}, "engine"},
		{"unknown engine", Spec{Engine: "quantum", Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Function: "average"}, "engine"},
		{"engine and concurrent", Spec{Engine: "shard", Concurrent: true, Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Function: "average"}, "engine"},
		{"conc with shards", Spec{Engine: "conc", Shards: 2, Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Function: "average"}, "shards"},
		{"concurrent with shards", Spec{Concurrent: true, Shards: 2, Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Function: "average"}, "shards"},
		{"stray shards", Spec{Shards: 2, Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Function: "average"}, "shards"},
		{"shards out of range", Spec{Engine: "shard", Shards: MaxAgents + 1, Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Function: "average"}, "shards"},
		{"vec before v4", Spec{SchemaVersion: 3, Engine: "vec", Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Function: "average"}, "engine"},
		{"vec with shards before v5", Spec{SchemaVersion: 4, Engine: "vec", Shards: 2, Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "od", Function: "average"}, "shards"},
		{"model before v6", Spec{SchemaVersion: 5, Model: "od", Graph: GraphSpec{Builder: "ring", N: 4}, Function: "average"}, "model"},
		{"kind and model", Spec{Kind: "od", Model: "bc", Graph: GraphSpec{Builder: "ring", N: 4}, Function: "average"}, "model"},
		{"unknown model", Spec{SchemaVersion: 6, Model: "telepathy", Graph: GraphSpec{Builder: "ring", N: 4}, Function: "average"}, "model"},
		{"onebit before v6", Spec{SchemaVersion: 5, Kind: "onebit", Graph: GraphSpec{Builder: "ring", N: 4}, Function: "max"}, "kind"},
		{"onebit nonbinary values", Spec{Kind: "onebit", Graph: GraphSpec{Builder: "ring", N: 4}, Function: "max", Values: []float64{1, 2, 0, 1}}, "values"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.Canonical()
			var verr *Error
			if !errors.As(err, &verr) {
				t.Fatalf("want *Error, got %v", err)
			}
			if verr.Field != tc.field {
				t.Fatalf("error field = %q, want %q (%v)", verr.Field, tc.field, verr)
			}
		})
	}
}

// TestModelFieldV6 pins version 6's side of the versioning contract: the
// "model" field is a registry-resolved synonym of "kind" that hashes —
// and caches — identically, canonicalization folds it back into the
// canonical kind, and the one-bit model gates on schema_version ≥ 6 while
// unversioned specs stay permissive.
func TestModelFieldV6(t *testing.T) {
	base := ringAverageSpec()
	ref, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	same := []Spec{
		func() Spec { s := base; s.Kind, s.Model = "", "od"; return s }(),
		func() Spec { s := base; s.Kind, s.Model = "", "outdegree awareness"; return s }(),
		func() Spec { s := base; s.SchemaVersion = 6; return s }(),
		func() Spec { s := base; s.SchemaVersion = 6; s.Kind, s.Model = "", "OD"; return s }(),
	}
	for i, s := range same {
		h, err := s.Hash()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if h != ref {
			t.Fatalf("variant %d hashes %q, want the kind-spelled hash %q", i, h, ref)
		}
	}
	// Canonicalization always spells the model through the kind field.
	s := base
	s.Kind, s.Model = "", "outdegree"
	c, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != "od" || c.Model != "" {
		t.Fatalf("canonical form kept model spelling: kind=%q model=%q", c.Kind, c.Model)
	}
	// One-bit: permissive when unversioned, accepted at 6, and binary
	// inputs are defaulted to the alternating pattern.
	ob := Spec{Graph: GraphSpec{Builder: "ring", N: 4}, Kind: "onebit", Function: "max"}
	cob, err := ob.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 1, 0, 1}; len(cob.Values) != 4 || cob.Values[0] != want[0] || cob.Values[1] != want[1] {
		t.Fatalf("onebit default values = %v, want alternating %v", cob.Values, want)
	}
	ob6 := ob
	ob6.SchemaVersion = 6
	h0, err0 := ob.Hash()
	h6, err6 := ob6.Hash()
	if err0 != nil || err6 != nil || h0 != h6 {
		t.Fatalf("onebit unversioned (%q) and v6 (%q) hash apart: %v %v", h0, h6, err0, err6)
	}
}

// TestRunOneBitModel runs the one-bit broadcast model end-to-end through
// the job layer: spec → compile → run, with the model named via the v6
// model field.
func TestRunOneBitModel(t *testing.T) {
	c, err := Compile(Spec{
		SchemaVersion: 6,
		Graph:         GraphSpec{Builder: "ring", N: 6},
		Model:         "onebit",
		Function:      "max",
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Fatalf("one-bit run not stable: %+v", res)
	}
	// Default binary inputs alternate 0,1 → max is 1 everywhere.
	for i, o := range res.Outputs {
		if o != 1 {
			t.Fatalf("output %d = %v, want 1", i, o)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	s := ringAverageSpec()
	b, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := s.Hash()
	h2, err := back.Hash()
	if err != nil || h1 != h2 {
		t.Fatalf("round trip changed the hash: %q vs %q (%v)", h1, h2, err)
	}
	if _, err := Decode([]byte(`{"graph":{"builder":"ring","n":4},"kind":"od","function":"average","bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	for _, tail := range []string{` trailing`, `}`, `]`, `]]]garbage`, `{}`, ` 1`} {
		if _, err := Decode([]byte(`{"kind":"od"}` + tail)); err == nil {
			t.Fatalf("trailing data %q accepted", tail)
		}
	}
	if _, err := Decode([]byte("{\"kind\":\"od\"}\n\t ")); err != nil {
		t.Fatalf("trailing white space rejected: %v", err)
	}
}

func TestCompileRunAverageOnRing(t *testing.T) {
	c, err := Compile(ringAverageSpec())
	if err != nil {
		t.Fatal(err)
	}
	if b := build(t, c); c.N != 8 || b.Expected != 3.875 {
		t.Fatalf("compile: n=%d expected=%v", c.N, b.Expected)
	}
	rounds := 0
	res, err := Run(context.Background(), c, func(round int, outs []model.Value) { rounds++ })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Fatalf("not stable: %+v", res)
	}
	if rounds != res.Rounds {
		t.Fatalf("observer saw %d rounds, result says %d", rounds, res.Rounds)
	}
	for i, o := range res.Outputs {
		if math.Abs(float64(o)-3.875) > 1e-9 {
			t.Fatalf("output %d = %v, want 3.875", i, o)
		}
	}
	if float64(res.MaxErr) > 1e-9 {
		t.Fatalf("max_err = %v", res.MaxErr)
	}
}

func TestRunRespectsContext(t *testing.T) {
	c, err := Compile(ringAverageSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Run(ctx, c, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestCompileRejectsForbiddenCell(t *testing.T) {
	// Sum is multiset-based; outdegree awareness with no help computes
	// only frequency-based functions — the dispatcher must refuse.
	s := ringAverageSpec()
	s.Function = "sum"
	if _, err := Compile(s); err == nil {
		t.Fatal("table-forbidden spec compiled")
	}
}

// runJSON compiles and runs s, returning the Result's JSON encoding.
func runJSON(t *testing.T, s Spec) string {
	t.Helper()
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestConcurrentSpecRunsSharded: specs naming the retired concurrent
// engine — concurrent:true, or engine "conc"/"concurrent", which fold into
// it and keep its hash — run on the sharded engine, so job.Run returns a
// Result byte-identical to the same spec with engine "shard", faults
// included.
func TestConcurrentSpecRunsSharded(t *testing.T) {
	base := Spec{Graph: GraphSpec{Builder: "splitring", N: 8}, Kind: "od", Function: "average",
		Values: []float64{3, 1, 4, 1, 5, 9, 2, 6}, Seed: 7, MaxRounds: 400,
		Faults: &faults.Plan{Drop: 0.1, DelayP: 0.2, DelayMax: 3, Stall: 0.05}}
	shard := base
	shard.Engine = "shard"
	want := runJSON(t, shard)
	conc := base
	conc.Concurrent = true
	wantHash, err := conc.Hash()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"conc", "concurrent"} {
		s := base
		s.Engine = name
		if h, err := s.Hash(); err != nil || h != wantHash {
			t.Fatalf("engine=%s hashes %q, want the concurrent:true hash %q (%v)", name, h, wantHash, err)
		}
		if got := runJSON(t, s); got != want {
			t.Errorf("engine=%s result %s, want the engine=shard result %s", name, got, want)
		}
	}
	if got := runJSON(t, conc); got != want {
		t.Errorf("concurrent:true result %s, want the engine=shard result %s", got, want)
	}
}

// TestVecShardsCappedAtN: a valid spec may ask for up to MaxAgents
// workers; on a 4-ring the parallel kernel caps them at 4, so the run
// starts at most 4 worker goroutines and returns the sequential result.
func TestVecShardsCappedAtN(t *testing.T) {
	spec, err := Decode([]byte(`{"schema_version":5,"engine":"vec","shards":65536,"graph":{"builder":"ring","n":4},"kind":"od","function":"average","dynamic":true,"max_rounds":50}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	before, peak := runtime.NumGoroutine(), 0
	res, err := Run(context.Background(), c, func(int, []model.Value) {
		peak = max(peak, runtime.NumGoroutine()-before)
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > 4 {
		t.Fatalf("a 4-agent run with 65536 requested workers had %d extra goroutines, want ≤ 4", peak)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	seq := spec
	seq.Engine, seq.Shards = "", 0
	if want := runJSON(t, seq); string(got) != want {
		t.Errorf("capped parallel result %s, want the sequential result %s", got, want)
	}
}

func TestCompileDynamicAndConcurrent(t *testing.T) {
	s := Spec{
		Graph:      GraphSpec{Builder: "randomdyn", N: 6},
		Kind:       "od",
		Function:   "average",
		Seed:       3,
		MaxRounds:  400,
		Concurrent: true,
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if c.Setting.Static {
		t.Fatal("randomdyn compiled as static")
	}
	if !c.Spec.Dynamic {
		t.Fatal("canonical form did not record dynamic")
	}
	res, err := Run(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Push-Sum without help converges asymptotically, not exactly.
	if res.Rounds == 0 {
		t.Fatalf("no rounds executed: %+v", res)
	}
}
