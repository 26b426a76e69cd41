package job

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"anonnet/internal/core"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/faults"
	"anonnet/internal/funcs"
	"anonnet/internal/model"
	"anonnet/internal/topology"
)

// F64 is a float64 that JSON-encodes non-finite values as the strings
// "NaN", "+Inf", and "-Inf" instead of failing to marshal — a service
// result must always be serializable, whatever the algorithm produced.
type F64 float64

// MarshalJSON implements json.Marshaler.
func (f F64) MarshalJSON() ([]byte, error) { return AppendF64(nil, f), nil }

// UnmarshalJSON implements json.Unmarshaler, accepting both the numeric
// and the string forms.
func (f *F64) UnmarshalJSON(b []byte) error {
	var v float64
	if err := json.Unmarshal(b, &v); err == nil {
		*f = F64(v)
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("job: F64: %q is neither number nor string", b)
	}
	switch s {
	case "NaN":
		*f = F64(math.NaN())
	case "+Inf", "Inf":
		*f = F64(math.Inf(1))
	case "-Inf":
		*f = F64(math.Inf(-1))
	default:
		return fmt.Errorf("job: F64: unknown string value %q", s)
	}
	return nil
}

// Compiled is an admitted job: the canonical spec, its hash and kept
// encoding, the table setting, and the dispatched factory. Of size n it
// holds only the spec's values and, when they are not the defaults,
// their encoding; Build makes the network and inputs a run needs.
type Compiled struct {
	// Spec is the canonical form; Hash its content hash.
	Spec Spec
	Hash string
	// SpecJSON is the spec encoding a job keeps: the canonical form's
	// JSON encoding with values left out when they are the model's
	// default inputs (json.Marshal(Spec) with Values cleared), and
	// json.Marshal(Spec) otherwise. Hash digests json.Marshal(Spec) with
	// the defaults written out, and Decode of SpecJSON compiles back to
	// the same Spec and Hash. It is written once here, at its exact size:
	// the service keeps it for the job's life and copies it into log
	// records and responses. Read-only.
	SpecJSON []byte
	// Fingerprint is the canonical graph fingerprint — the sub-hash of
	// Hash covering only the fields that determine the round graph and
	// its CSR (builder + dims + seed-when-seeded + kind). Empty when the
	// run has no single graph to share: dynamic builders, Dynamic-forced
	// specs, and specs with starts or a churn plan, whose rounds rewrite
	// the graph. It is the one place that decides whether a job may run
	// on a cached snapshot; the service keys its topology cache by it.
	Fingerprint string
	// N is the number of agents.
	N int
	// Setting is the table cell the spec instantiates.
	Setting core.Setting
	// Func is the resolved catalog function.
	Func funcs.Func
	// Factory is the algorithm realizing the cell, from core.NewFactory.
	Factory model.Factory
}

// Compile validates the spec, encodes and hashes its canonical form, and
// dispatches the function to the algorithm realizing the setting's cell.
// It builds nothing. Validation failures are *Error; a table-forbidden
// (function, setting) pair surfaces core.NewFactory's explanatory error.
func Compile(s Spec) (*Compiled, error) {
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	specJSON, hash := encodeCanonical(c)
	info := builders[c.Graph.Builder]
	n, verr := info.n(c.Graph)
	if verr != nil {
		return nil, verr
	}
	kind, _, verr := parseKind(c.Kind)
	if verr != nil {
		return nil, verr
	}
	row, _, verr := parseRow(c.Row)
	if verr != nil {
		return nil, verr
	}
	f, verr := lookupFunc(c.Function)
	if verr != nil {
		return nil, verr
	}
	setting := core.Setting{
		Kind:    kind,
		Static:  info.static() && !c.Dynamic,
		Row:     row,
		BoundN:  c.BoundN,
		KnownN:  n,
		Leaders: len(c.Leaders),
	}
	factory, err := core.NewFactory(f, setting)
	if err != nil {
		return nil, err
	}
	return &Compiled{
		Spec:        c,
		Hash:        hash,
		SpecJSON:    specJSON,
		Fingerprint: graphFingerprint(c, info),
		N:           n,
		Setting:     setting,
		Func:        f,
		Factory:     factory,
	}, nil
}

// Built is a compiled job with everything one run of it needs: the
// network, the fault injector, and the marked inputs.
type Built struct {
	*Compiled
	// Schedule is the built network, churn-wrapped when the spec asks; nil
	// when the run takes the cached snapshot instead.
	Schedule dynamic.Schedule
	// Injector is the compiled fault injector; nil when the spec has no
	// faults block (the engines then follow the fault-free paths exactly).
	Injector *faults.Injector
	// Inputs are the private inputs with leaders marked.
	Inputs []model.Input
	// Expected is f applied to the inputs — the ground truth the harness
	// measures errors against.
	Expected float64

	// topo is the topology-cache entry whose snapshot is the network; nil
	// when the build used no cache or built its network privately.
	topo *topology.Entry
}

// Build makes the job's network, inputs, fault injector and Expected.
// With a cache and a graph fingerprint, the network is the validated CSR
// snapshot taken from (or built once into) cache under the fingerprint,
// Schedule stays nil, and the entry stays pinned until Release — the run
// that built the job calls it once, when it returns. A miss builds the
// snapshot from the static family's arcs and makes no graph. A nil cache,
// or a spec without a fingerprint, builds the schedule privately (a
// static family's graph from the same arcs). A churn plan whose reject
// guard fires on the first window fails here with a *Error on
// faults.churn.
func (c *Compiled) Build(cache *topology.Cache) (*Built, error) {
	s := c.Spec
	info := builders[s.Graph.Builder]
	b := &Built{Compiled: c, Inputs: make([]model.Input, c.N), Expected: c.Func.FromVector(s.Values)}
	for i, v := range s.Values {
		b.Inputs[i] = model.Input{Value: v}
	}
	for _, l := range s.Leaders {
		b.Inputs[l].Leader = true
	}
	if cache != nil && c.Fingerprint != "" {
		entry, err := cache.Acquire(c.Fingerprint, c.snapshot)
		// On Acquire error, fall through to the private build: a network
		// the §2.1 validation rejects (say kind=sym on a directed builder)
		// must keep building fine and failing at run time, exactly as it
		// does without a cache.
		if err == nil {
			b.topo = entry
		}
	}
	if b.topo == nil {
		b.Schedule = info.build(s.Graph, c.N, s.Seed)
	}
	if s.Faults != nil {
		var err error
		if b.Injector, err = faults.NewInjector(s.Seed, *s.Faults); err != nil {
			b.Release()
			return nil, errf("faults", "%v", err)
		}
		if b.Schedule, err = faults.WrapSchedule(b.Schedule, s.Seed, s.Faults.Churn); err != nil {
			b.Release()
			return nil, errf("faults.churn", "%v", err)
		}
	}
	return b, nil
}

// snapshot is a topology-cache miss: the static network's arcs go
// straight into the validated CSR build, and no graph is made.
func (c *Compiled) snapshot() (*topology.Snapshot, error) {
	arcs := builders[c.Spec.Graph.Builder].portArcs(c.Spec.Graph, c.N, c.Spec.Seed)
	return topology.BuildSnapshot(c.N, arcs, c.Setting.Kind)
}

// Release unpins the topology-cache entry the build holds, if any; the
// network must not be used afterwards.
func (b *Built) Release() { b.topo.Release() }

// Result reports one finished run.
type Result struct {
	// Outputs is the final output vector.
	Outputs []F64 `json:"outputs"`
	// Stable is true when the outputs stabilized exactly within the
	// budget; asymptotic algorithms may report false while converged
	// numerically — check MaxErr.
	Stable bool `json:"stable"`
	// StabilizedAt is the first round from which outputs never changed
	// (when Stable).
	StabilizedAt int `json:"stabilized_at,omitempty"`
	// Rounds is the number of rounds executed.
	Rounds int `json:"rounds"`
	// Expected is the ground-truth value f(v).
	Expected F64 `json:"expected"`
	// MaxErr is max_i |x_i − f(v)| at the end of the run.
	MaxErr F64 `json:"max_err"`
	// Messages counts every delivered message.
	Messages int64 `json:"messages"`
	// Faults counts the injected faults actually applied; present only
	// when the spec carried a faults block.
	Faults *FaultCounts `json:"faults,omitempty"`
}

// FaultCounts is the serializable mirror of engine.FaultStats.
type FaultCounts struct {
	Dropped    int64 `json:"dropped"`
	Duplicated int64 `json:"duplicated"`
	Delayed    int64 `json:"delayed"`
}

// engineConfig assembles the engine.Config and runner name for a built
// job.
func (b *Built) engineConfig() (engine.Config, string) {
	cfg := engine.Config{
		Schedule: b.Schedule,
		Kind:     b.Setting.Kind,
		Inputs:   b.Inputs,
		Factory:  b.Factory,
		Seed:     b.Spec.Seed,
		Starts:   b.Spec.Starts,
	}
	// Assign through an explicit nil check: a typed-nil *faults.Injector in
	// the interface field would defeat the engines' inj == nil fast paths.
	if b.Injector != nil {
		cfg.Faults = b.Injector
	}
	// A cached build's network is the pinned entry's snapshot.
	if b.topo != nil {
		cfg.Snapshot = b.topo.Snap
	}
	// One engine-selection point for the whole repo: engine.NewRunner maps
	// the spec's engine name to the runner and handles the deterministic
	// vec→seq fallback (identical traces) itself. The legacy Concurrent
	// flag runs on the sharded engine, whose traces are identical.
	name := b.Spec.Engine
	if b.Spec.Concurrent {
		name = "shard"
	}
	return cfg, name
}

// Run builds the compiled job without a cache and executes it to
// stabilization (or budget exhaustion) under ctx, reporting each round to
// obs when non-nil. A context cancellation or deadline aborts at the next
// round boundary and surfaces the context's error. Equal compiled jobs
// produce equal results: every engine is deterministic in the spec's seed.
func Run(ctx context.Context, c *Compiled, obs engine.Observer) (*Result, error) {
	b, err := c.Build(nil)
	if err != nil {
		return nil, err
	}
	defer b.Release()
	return RunCheckpointed(ctx, b, obs, CheckpointConfig{})
}

// Numeric converts an engine output vector to serializable floats and
// computes the maximal absolute error against the expected value.
// Non-numeric outputs (an algorithm mid-handshake may expose none) become
// NaN, which F64 serializes as "NaN".
func Numeric(outs []model.Value, expected float64) ([]F64, float64) {
	vals := make([]F64, len(outs))
	maxErr := 0.0
	for i, o := range outs {
		f, ok := o.(float64)
		if !ok {
			vals[i] = F64(math.NaN())
			maxErr = math.Inf(1)
			continue
		}
		vals[i] = F64(f)
		maxErr = worseErr(maxErr, f, expected)
	}
	return vals, maxErr
}

// NumericFloats is Numeric on a float output vector, such as an
// engine.FloatRunner's, read without boxing.
func NumericFloats(outs []float64, expected float64) ([]F64, float64) {
	vals := make([]F64, len(outs))
	maxErr := 0.0
	for i, f := range outs {
		vals[i] = F64(f)
		maxErr = worseErr(maxErr, f, expected)
	}
	return vals, maxErr
}

// worseErr returns the larger of maxErr and |f − expected|, a NaN
// distance winning.
func worseErr(maxErr, f, expected float64) float64 {
	if d := math.Abs(f - expected); d > maxErr || math.IsNaN(d) {
		return d
	}
	return maxErr
}
