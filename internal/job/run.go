package job

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"anonnet/internal/core"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/faults"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
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

// Compiled is a validated, executable job: the canonical spec plus every
// artifact needed to run it — the schedule, the table setting, the
// dispatched factory, and the marked inputs.
type Compiled struct {
	// Spec is the canonical form; Hash its content hash.
	Spec Spec
	Hash string
	// SpecJSON is the canonical form's JSON encoding, the bytes Hash
	// digests. It is json.Marshal(Spec), made once here: the service
	// copies it into log records and responses instead of encoding the
	// spec's n values again. Read-only.
	SpecJSON []byte
	// Fingerprint is the canonical graph fingerprint — the sub-hash of
	// Hash covering only the fields that determine the round graph and
	// its CSR (builder + dims + seed-when-seeded + kind). Empty for
	// dynamic builders and Dynamic-forced specs, which have no single
	// graph to share. The service keys its topology cache and batch
	// affinity grouping by it.
	Fingerprint string
	// N is the number of agents.
	N int
	// Setting is the table cell the spec instantiates.
	Setting core.Setting
	// Func is the resolved catalog function.
	Func funcs.Func
	// Factory is the algorithm realizing the cell, from core.NewFactory.
	Factory model.Factory
	// Schedule is the built network, churn-wrapped when the spec asks.
	Schedule dynamic.Schedule
	// Injector is the compiled fault injector; nil when the spec has no
	// faults block (the engines then follow the fault-free paths exactly).
	Injector *faults.Injector
	// Inputs are the private inputs with leaders marked.
	Inputs []model.Input
	// Expected is f applied to the inputs — the ground truth the harness
	// measures errors against.
	Expected float64

	// topo pins the shared topology-cache entry this job compiled
	// against; nil for uncached compiles. Released exactly once through
	// ReleaseTopo when the job reaches a terminal state.
	topo     *topology.Entry
	topoOnce sync.Once
}

// TopoEntry exposes the pinned topology-cache entry ({graph, snapshot}),
// or nil for uncached compiles. Borrowers must not outlive ReleaseTopo.
func (c *Compiled) TopoEntry() *topology.Entry { return c.topo }

// ReleaseTopo unpins the job's shared topology-cache entry. Idempotent
// and nil-safe; whoever owns the job's lifecycle (the service, a bench
// harness) calls it when the job can no longer run.
func (c *Compiled) ReleaseTopo() {
	if c.topo != nil {
		c.topoOnce.Do(c.topo.Release)
	}
}

// Compile validates the spec, builds the network, dispatches the function
// to the algorithm realizing the setting's cell, and returns the
// executable job. Validation failures are *Error; a table-forbidden
// (function, setting) pair surfaces core.NewFactory's explanatory error.
func Compile(s Spec) (*Compiled, error) { return CompileWithCache(s, nil) }

// CompileWithCache is Compile with a process-wide topology cache: when
// the spec names a static graph, the built network and its validated CSR
// snapshot are acquired from (or built once into) cache under the spec's
// graph fingerprint instead of being rebuilt per job — the sweep fast
// path. The returned job holds a pinned cache entry; callers must arrange
// ReleaseTopo when it turns terminal. A nil cache compiles standalone.
func CompileWithCache(s Spec, cache *topology.Cache) (*Compiled, error) {
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	specJSON, hash, err := encodeCanonical(c)
	if err != nil {
		return nil, err
	}
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
		Static:  info.static && !c.Dynamic,
		Row:     row,
		BoundN:  c.BoundN,
		KnownN:  n,
		Leaders: len(c.Leaders),
	}
	factory, err := core.NewFactory(f, setting)
	if err != nil {
		return nil, err
	}
	inputs := make([]model.Input, n)
	for i, v := range c.Values {
		inputs[i] = model.Input{Value: v}
	}
	for _, l := range c.Leaders {
		inputs[l].Leader = true
	}
	fingerprint := graphFingerprint(c, info)
	var schedule dynamic.Schedule
	var topoEntry *topology.Entry
	if cache != nil && fingerprint != "" {
		entry, aerr := cache.Acquire(fingerprint, func() (*graph.Graph, *topology.Snapshot, error) {
			st, ok := info.build(c.Graph, n, c.Seed).(*dynamic.Static)
			if !ok {
				return nil, nil, fmt.Errorf("job: static builder %q produced a %T schedule", c.Graph.Builder, st)
			}
			g := st.Graph()
			snap, err := topology.BuildSnapshot(g, kind)
			if err != nil {
				return nil, nil, err
			}
			return g, snap, nil
		})
		if aerr == nil {
			topoEntry = entry
			// The cached graph already carries its self-loops, so NewStatic
			// returns a schedule over the exact shared pointer — which is
			// what lets the engine's provider serve the shared snapshot by
			// pointer identity.
			schedule = dynamic.NewStatic(entry.Graph)
		}
		// On Acquire error, fall through to the uncached path: a graph the
		// §2.1 validation rejects (say kind=sym on a directed builder) must
		// keep compiling fine and failing at run time, exactly as it does
		// without a cache — Compile's error surface is API.
	}
	if schedule == nil {
		schedule = info.build(c.Graph, n, c.Seed)
	}
	var injector *faults.Injector
	if c.Faults != nil {
		injector, err = faults.NewInjector(c.Seed, *c.Faults)
		if err != nil {
			topoRelease(topoEntry)
			return nil, errf("faults", "%v", err)
		}
		schedule, err = faults.WrapSchedule(schedule, c.Seed, c.Faults.Churn)
		if err != nil {
			topoRelease(topoEntry)
			return nil, errf("faults.churn", "%v", err)
		}
	}
	return &Compiled{
		Spec:        c,
		Hash:        hash,
		SpecJSON:    specJSON,
		Fingerprint: fingerprint,
		N:           n,
		Setting:     setting,
		Func:        f,
		Factory:     factory,
		Schedule:    schedule,
		Injector:    injector,
		Inputs:      inputs,
		Expected:    f.FromVector(c.Values),
		topo:        topoEntry,
	}, nil
}

func topoRelease(e *topology.Entry) {
	if e != nil {
		e.Release()
	}
}

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

// engineConfig assembles the engine.Config and runner name for a compiled
// job.
func (c *Compiled) engineConfig() (engine.Config, string) {
	cfg := engine.Config{
		Schedule: c.Schedule,
		Kind:     c.Setting.Kind,
		Inputs:   c.Inputs,
		Factory:  c.Factory,
		Seed:     c.Spec.Seed,
		Starts:   c.Spec.Starts,
	}
	// Assign through an explicit nil check: a typed-nil *faults.Injector in
	// the interface field would defeat the engines' inj == nil fast paths.
	if c.Injector != nil {
		cfg.Faults = c.Injector
	}
	// A cache-compiled job borrows the shared snapshot: rounds whose graph
	// is the pinned entry's graph skip validation and the CSR build. The
	// engine matches by pointer identity, so churned or async-start rounds
	// that rewrite the graph simply fall back to building their own.
	if c.topo != nil {
		cfg.SharedSnapshot = c.topo.Snap
		cfg.SharedGraph = c.topo.Graph
	}
	// One engine-selection point for the whole repo: engine.NewRunner maps
	// the spec's engine name to the runner and handles the deterministic
	// vec→seq fallback (identical traces) itself. The legacy Concurrent
	// flag runs on the sharded engine, whose traces are identical.
	name := c.Spec.Engine
	if c.Spec.Concurrent {
		name = "shard"
	}
	return cfg, name
}

// Run executes the compiled job to stabilization (or budget exhaustion)
// under ctx, reporting each round to obs when non-nil. A context
// cancellation or deadline aborts at the next round boundary and surfaces
// the context's error. Equal compiled jobs produce equal results: every
// engine is deterministic in the spec's seed.
func Run(ctx context.Context, c *Compiled, obs engine.Observer) (*Result, error) {
	return RunCheckpointed(ctx, c, obs, CheckpointConfig{})
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
		if d := math.Abs(f - expected); d > maxErr || math.IsNaN(d) {
			maxErr = d
		}
	}
	return vals, maxErr
}
