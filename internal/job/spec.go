// Package job defines the unit of work served by the anonnetd simulation
// service: a JSON-serializable, validated Spec naming one cell of the
// paper's computability landscape instantiated on one concrete network —
// graph builder + parameters + seed, communication model, centralized
// help, function, and convergence budget — together with a canonical
// content hash (so identical computations share one cache entry) and an
// executor that runs the spec through the round engines under a
// context.Context.
package job

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"anonnet/internal/core"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/faults"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// Resource ceilings: a service accepting specs from the network must bound
// the work a single job can demand.
const (
	// MaxAgents bounds the network size n. The ceiling admits the
	// million-agent sweeps the vectorized kernels are benchmarked at;
	// operators fronting untrusted traffic should bound per-tenant load
	// with quotas, not by shrinking the spec ceiling.
	MaxAgents = 1 << 20
	// MaxRoundsCeiling bounds the round budget.
	MaxRoundsCeiling = 1_000_000
)

// Error is a typed validation error: Field names the offending spec field
// (JSON name), Reason says what is wrong. The codec never panics on
// invalid input; it returns *Error.
type Error struct {
	Field  string
	Reason string
}

func (e *Error) Error() string { return fmt.Sprintf("job: invalid spec: %s: %s", e.Field, e.Reason) }

func errf(field, format string, args ...any) *Error {
	return &Error{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// GraphSpec names a network builder and its parameters. Exactly the
// builders of cmd/anonsim are supported; dimensioned families (torus, de
// Bruijn, hypercube) use K/D/Rows/Cols instead of N.
type GraphSpec struct {
	// Builder is one of: ring, bidiring, star, path, complete, hypercube,
	// debruijn, torus, random, randomsym, geometric, splitring, randomdyn,
	// pairwise.
	Builder string `json:"builder"`
	// N is the number of vertices (builders with a single size parameter).
	N int `json:"n,omitempty"`
	// K is the de Bruijn alphabet size.
	K int `json:"k,omitempty"`
	// D is the hypercube / de Bruijn dimension.
	D int `json:"d,omitempty"`
	// Rows and Cols are the torus dimensions.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Extra is the surplus-edge count of the random builders (default n).
	Extra int `json:"extra,omitempty"`
	// Radius is the connection radius of the geometric builder
	// (default 0.35).
	Radius float64 `json:"radius,omitempty"`
}

// SpecSchemaVersion is the current job-spec schema version. Version 1 is
// the original unversioned shape; version 2 adds the engine/shards
// selectors; version 3 adds the faults block; version 4 adds the "vec"
// engine (the vectorized kernel); version 5 makes shards engine-agnostic
// parallelism — legal with engine "vec" too, selecting the parallel
// vectorized kernel; version 6 adds the "model" field (a synonym of
// "kind" resolved through the model registry, accepting every registered
// name and alias) and with it the registry-hosted models beyond the
// paper's four, starting with "onebit". Specs omitting schema_version are
// version 1.
const SpecSchemaVersion = 6

// Spec is one simulation job. The zero value is invalid; Canonical
// validates and normalizes.
type Spec struct {
	// SchemaVersion is the spec schema version: 0 (meaning 1) or a value
	// up to SpecSchemaVersion. It is normalized out of the canonical form
	// so that version-1 specs hash identically whether or not they state
	// their version — cache keys from before versioning stay valid.
	SchemaVersion int `json:"schema_version,omitempty"`
	// Graph names the network.
	Graph GraphSpec `json:"graph"`
	// Kind is the communication model by canonical short name: bc, od, op,
	// sym, or onebit (every name and alias registered in the model
	// registry is accepted and normalized). The canonical form always
	// carries Kind, so pre-v6 specs hash unchanged.
	Kind string `json:"kind,omitempty"`
	// Model is the schema_version ≥ 6 spelling of the communication model,
	// a synonym of Kind (exactly one of the two may be set). It exists so
	// sweep grids can treat the model as an axis with a self-describing
	// name; the canonical form folds it into Kind.
	Model string `json:"model,omitempty"`
	// Row is the centralized-help row: nohelp (default), bound, size, or
	// leader.
	Row string `json:"row,omitempty"`
	// BoundN is the known bound N ≥ n (row=bound).
	BoundN int `json:"bound_n,omitempty"`
	// Leaders lists the leader agent indices (row=leader marks them and
	// passes their count as help).
	Leaders []int `json:"leaders,omitempty"`
	// Function is a catalog name (average, max, sum, …).
	Function string `json:"function"`
	// Values are the private inputs, one per agent (default 1..n).
	Values []float64 `json:"values,omitempty"`
	// Seed drives delivery-order shuffling and the random builders.
	Seed int64 `json:"seed,omitempty"`
	// MaxRounds bounds the execution (default 10000).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Patience is the unchanged-round window treated as stabilization
	// (default 2n+10 static, n²+2n+10 dynamic — asymptotic algorithms
	// plateau for stretches that grow with the Theorem 5.2 mixing
	// budget before converging).
	Patience int `json:"patience,omitempty"`
	// Dynamic forces Table 2 treatment even on a static builder.
	Dynamic bool `json:"dynamic,omitempty"`
	// Concurrent selected the retired goroutine-per-agent engine; such
	// specs now run on the sequential path, whose traces are identical.
	//
	// Deprecated: use Engine instead. Kept because it participates in the
	// version-1 canonical hash.
	Concurrent bool `json:"concurrent,omitempty"`
	// Engine selects the round engine by name: "" or "seq" (the
	// sequential path, the default), "shard" (the retired sharded engine,
	// which now runs the sequential path), or "vec" (the vectorized
	// kernel, schema_version ≥ 4; falls back to sequential — identical
	// traces — when the algorithm is not vectorizable). "seq" is
	// normalized to "" so version-1 specs hash identically; "shard" stays
	// in the canonical form, so its specs keep their hashes; "conc" (or
	// "concurrent") folds into the Concurrent flag, so it keeps its
	// version-1 hash. Mutually exclusive with Concurrent.
	Engine string `json:"engine,omitempty"`
	// Shards is the engine's degree of parallelism: schema_version ≥ 5,
	// the worker count with engine=vec (0 means the single-threaded
	// kernel, ≥ 1 the parallel kernel; the trace is identical either way).
	// With engine=shard it stays valid and hashed, the shard count of the
	// retired sharded engine, and has no effect.
	Shards int `json:"shards,omitempty"`
	// Starts optionally gives per-agent activation rounds ≥ 1
	// (asynchronous starts).
	Starts []int `json:"starts,omitempty"`
	// Faults optionally describes deterministic fault injection (message
	// drop/duplication/delay, agent stall/crash-restart, link churn),
	// seeded by Seed. A zero plan is normalized to absent, so fault-free
	// specs hash — and cache — exactly as they did before the field
	// existed.
	Faults *faults.Plan `json:"faults,omitempty"`
}

// builderInfo describes one graph family: how many vertices a spec
// yields, and how to build its network. A static family is its arc list
// (the graph package writes each once); a dynamic one is a schedule.
type builderInfo struct {
	n func(g GraphSpec) (int, *Error)
	// arcs emits a static family's arcs in insertion order, self-loops
	// included and ports unlabelled; nil for dynamic builders.
	arcs func(g GraphSpec, n int, seed int64) []graph.Edge
	// schedule builds a dynamic builder's schedule; nil for static ones.
	schedule func(g GraphSpec, n int, seed int64) dynamic.Schedule
}

func (b builderInfo) static() bool { return b.arcs != nil }

// portArcs returns the static network's arcs with AssignPorts' numbering
// (1..d⁻ per source in arc order): what a cache miss flattens, and what
// the private build makes its graph from.
func (b builderInfo) portArcs(g GraphSpec, n int, seed int64) []graph.Edge {
	return graph.NumberPorts(n, b.arcs(g, n, seed))
}

// build makes the network privately, as a schedule: a static family's
// graph comes through graph.FromArcs from the same arcs a cache miss
// flattens.
func (b builderInfo) build(g GraphSpec, n int, seed int64) dynamic.Schedule {
	if !b.static() {
		return b.schedule(g, n, seed)
	}
	return dynamic.NewStatic(graph.FromArcs(n, b.portArcs(g, n, seed)))
}

func sizeN(g GraphSpec) (int, *Error) {
	if g.N < 1 {
		return 0, errf("graph.n", "builder %q needs n ≥ 1, got %d", g.Builder, g.N)
	}
	return g.N, nil
}

// family adapts a single-size static family to an arcs entry.
func family(arcs func(n int) []graph.Edge) func(GraphSpec, int, int64) []graph.Edge {
	return func(_ GraphSpec, n int, _ int64) []graph.Edge { return arcs(n) }
}

var builders = map[string]builderInfo{
	"ring":     {n: sizeN, arcs: family(graph.RingArcs)},
	"bidiring": {n: sizeN, arcs: family(graph.BidirectionalRingArcs)},
	"star":     {n: sizeN, arcs: family(graph.StarArcs)},
	"path":     {n: sizeN, arcs: family(graph.PathArcs)},
	"complete": {n: sizeN, arcs: family(graph.CompleteArcs)},
	"hypercube": {
		n: func(g GraphSpec) (int, *Error) {
			if g.D < 0 || g.D > 12 {
				return 0, errf("graph.d", "hypercube dimension %d out of range [0, 12]", g.D)
			}
			return 1 << g.D, nil
		},
		arcs: func(g GraphSpec, _ int, _ int64) []graph.Edge { return graph.HypercubeArcs(g.D) }},
	"debruijn": {
		n: func(g GraphSpec) (int, *Error) {
			if g.K < 1 || g.D < 0 {
				return 0, errf("graph.k", "debruijn needs k ≥ 1 and d ≥ 0, got k=%d d=%d", g.K, g.D)
			}
			if g.K > MaxAgents {
				// Every vertex gets k arcs, and d=0 makes n=1 whatever k is.
				return 0, errf("graph.k", "debruijn alphabet k=%d exceeds %d", g.K, MaxAgents)
			}
			n := 1
			for i := 0; i < g.D; i++ {
				n *= g.K
				if n > MaxAgents {
					return 0, errf("graph.d", "debruijn %d^%d exceeds %d agents", g.K, g.D, MaxAgents)
				}
			}
			return n, nil
		},
		arcs: func(g GraphSpec, _ int, _ int64) []graph.Edge { return graph.DeBruijnArcs(g.K, g.D) }},
	"torus": {
		n: func(g GraphSpec) (int, *Error) {
			if g.Rows < 1 || g.Cols < 1 {
				return 0, errf("graph.rows", "torus needs rows ≥ 1 and cols ≥ 1, got %d×%d", g.Rows, g.Cols)
			}
			if g.Rows > MaxAgents || g.Cols > MaxAgents {
				// Bounded sides keep the product from overflowing past the
				// agent ceiling.
				return 0, errf("graph.rows", "torus %d×%d exceeds %d agents", g.Rows, g.Cols, MaxAgents)
			}
			return g.Rows * g.Cols, nil
		},
		arcs: func(g GraphSpec, _ int, _ int64) []graph.Edge { return graph.TorusArcs(g.Rows, g.Cols) }},
	// The random families query the partial graph while they build, so
	// they build one and hand over a copy of its arcs.
	"random": {n: sizeN, arcs: func(g GraphSpec, n int, seed int64) []graph.Edge {
		return graph.RandomStronglyConnected(n, extra(g, n), rand.New(rand.NewSource(seed))).Edges()
	}},
	"randomsym": {n: sizeN, arcs: func(g GraphSpec, n int, seed int64) []graph.Edge {
		return graph.RandomSymmetricConnected(n, extra(g, n), rand.New(rand.NewSource(seed))).Edges()
	}},
	"geometric": {n: sizeN, arcs: func(g GraphSpec, n int, seed int64) []graph.Edge {
		r := g.Radius
		if r == 0 {
			r = 0.35
		}
		return graph.RandomGeometric(n, r, rand.New(rand.NewSource(seed))).Edges()
	}},
	"splitring": {n: sizeN, schedule: func(g GraphSpec, n int, _ int64) dynamic.Schedule {
		return &dynamic.SplitRing{Vertices: n}
	}},
	"randomdyn": {n: sizeN, schedule: func(g GraphSpec, n int, seed int64) dynamic.Schedule {
		return &dynamic.RandomConnected{Vertices: n, ExtraEdges: 2, Seed: seed}
	}},
	"pairwise": {n: sizeN, schedule: func(g GraphSpec, n int, seed int64) dynamic.Schedule {
		return &dynamic.Pairwise{Vertices: n, Seed: seed}
	}},
}

func extra(g GraphSpec, n int) int {
	if g.Extra > 0 {
		return g.Extra
	}
	return n
}

func builderNames() string {
	names := make([]string, 0, len(builders))
	for name := range builders {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// parseKind resolves a model name through the model registry, returning
// the Kind and the canonical short name. Every registered name and alias
// is accepted; the rejection lists the registered models, like the
// unknown-engine error does for engine names.
func parseKind(s string) (model.Kind, string, *Error) {
	d, ok := model.Parse(s)
	if !ok {
		return 0, "", errf("kind", "unknown model %q (want %s)", s, model.NamesList())
	}
	return d.Kind, d.Canon, nil
}

func parseRow(s string) (core.Row, string, *Error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "nohelp", "none":
		return core.RowNoHelp, "nohelp", nil
	case "bound":
		return core.RowBound, "bound", nil
	case "size", "n":
		return core.RowSize, "size", nil
	case "leader", "leaders":
		return core.RowLeader, "leader", nil
	default:
		return 0, "", errf("row", "unknown help row %q (want nohelp, bound, size, or leader)", s)
	}
}

func lookupFunc(name string) (funcs.Func, *Error) {
	for _, f := range funcs.Catalog() {
		if strings.EqualFold(f.Name, strings.TrimSpace(name)) {
			return f, nil
		}
	}
	return funcs.Func{}, errf("function", "unknown function %q", name)
}

// Canonical validates s and returns its canonical form: aliases
// normalized, defaults materialized (values 1..n, patience 2n+10,
// max_rounds 10000), leaders sorted and deduplicated. Two specs denoting
// the same computation have equal canonical forms, hence equal hashes.
// The input is not modified.
func (s Spec) Canonical() (Spec, error) {
	c := s

	// Schema versioning: 0 means version 1 (the original unversioned
	// shape). The version is normalized out of the canonical form so that
	// stating it does not change the hash — cache keys predating
	// versioning stay valid.
	if s.SchemaVersion < 0 || s.SchemaVersion > SpecSchemaVersion {
		return Spec{}, errf("schema_version", "unsupported schema version %d (this build speaks 1..%d)", s.SchemaVersion, SpecSchemaVersion)
	}
	if s.SchemaVersion == 1 && (s.Engine != "" || s.Shards != 0) {
		return Spec{}, errf("engine", "engine/shards need schema_version ≥ 2")
	}
	if s.SchemaVersion >= 1 && s.SchemaVersion <= 2 && !s.Faults.IsZero() {
		return Spec{}, errf("faults", "faults need schema_version ≥ 3")
	}
	c.SchemaVersion = 0

	// Faults: a zero plan means "no faults" and is normalized to absent, so
	// adding the field never changed fault-free hashes; a non-zero plan is
	// validated, copied, and its defaults materialized.
	if s.Faults.IsZero() {
		c.Faults = nil
	} else {
		if err := s.Faults.Validate(); err != nil {
			return Spec{}, errf("faults", "%v", err)
		}
		plan := *s.Faults
		if plan.DelayP > 0 && plan.DelayMax == 0 {
			plan.DelayMax = 1
		}
		if plan.Churn != nil {
			if plan.Churn.Drop == 0 {
				plan.Churn = nil
			} else {
				churn := *plan.Churn
				if churn.Window == 0 {
					churn.Window = 1
				}
				if churn.Guard == "" {
					churn.Guard = faults.GuardOff
				}
				plan.Churn = &churn
			}
		}
		c.Faults = &plan
	}

	// Engine selection. "conc" folds into the version-1 Concurrent flag
	// and "seq" into its absence, so a version-2 spec naming the engine
	// hashes — and caches — identically to the version-1 spec meaning the
	// same thing. The name table resolves "conc" to "shard", so the fold
	// checks the spelling before resolving.
	if s.Concurrent && strings.TrimSpace(s.Engine) != "" {
		return Spec{}, errf("engine", "engine and concurrent are mutually exclusive; drop concurrent")
	}
	canon, known := engine.CanonicalName(s.Engine)
	if !known {
		return Spec{}, errf("engine", "unknown engine %q (want %s)", s.Engine, engine.NamesList())
	}
	switch name := strings.ToLower(strings.TrimSpace(s.Engine)); {
	case name == "conc" || name == "concurrent":
		c.Engine = ""
		c.Concurrent = true
	case canon == "seq":
		c.Engine = ""
	case canon == "shard":
		c.Engine = "shard"
	case canon == "vec":
		if s.SchemaVersion >= 1 && s.SchemaVersion <= 3 {
			return Spec{}, errf("engine", "engine=vec needs schema_version ≥ 4")
		}
		c.Engine = "vec"
	}
	// Shards is parallelism: worker count for the parallel vectorized
	// kernel (schema_version ≥ 5; a version-4 spec carrying vec+shards
	// stays rejected, so old hashes never collide with the new shape), and
	// the retired sharded engine's shard count, kept valid so its specs
	// keep their hashes.
	if s.Shards != 0 {
		switch c.Engine {
		case "shard":
		case "vec":
			if s.SchemaVersion >= 1 && s.SchemaVersion <= 4 {
				return Spec{}, errf("shards", "shards with engine=vec needs schema_version ≥ 5")
			}
		default:
			return Spec{}, errf("shards", "shards is only meaningful with engine=shard or engine=vec")
		}
	}
	if s.Shards < 0 || s.Shards > MaxAgents {
		return Spec{}, errf("shards", "shards %d out of range [0, %d]", s.Shards, MaxAgents)
	}

	info, ok := builders[strings.ToLower(strings.TrimSpace(s.Graph.Builder))]
	if !ok {
		return Spec{}, errf("graph.builder", "unknown builder %q (want one of: %s)", s.Graph.Builder, builderNames())
	}
	c.Graph.Builder = strings.ToLower(strings.TrimSpace(s.Graph.Builder))
	n, verr := info.n(c.Graph)
	if verr != nil {
		return Spec{}, verr
	}
	if n > MaxAgents {
		return Spec{}, errf("graph", "network has %d agents, service ceiling is %d", n, MaxAgents)
	}
	// Reject graph parameters the builder does not consume, instead of
	// silently ignoring them: the canonical hash must be injective on
	// meaning.
	if err := c.Graph.checkStray(); err != nil {
		return Spec{}, err
	}
	// JSON cannot hold a non-finite radius; only a Go caller can pass one.
	if r := c.Graph.Radius; math.IsNaN(r) || math.IsInf(r, 0) {
		return Spec{}, errf("graph.radius", "radius %v is not finite", r)
	}
	// Materialize builder parameter defaults so "default" and "explicitly
	// default" specs hash identically.
	switch c.Graph.Builder {
	case "geometric":
		if c.Graph.Radius == 0 {
			c.Graph.Radius = 0.35
		}
	case "random", "randomsym":
		if c.Graph.Extra == 0 {
			c.Graph.Extra = n
		}
	}

	// Communication model: the original "kind" field and the v6 "model"
	// field are synonyms resolved through the model registry. The canonical
	// form always carries the canonical short name in Kind and clears
	// Model, so a v6 spec naming the model hashes — and caches —
	// identically to the pre-v6 spec meaning the same thing.
	modelField, modelName := "kind", s.Kind
	if strings.TrimSpace(s.Model) != "" {
		if s.SchemaVersion >= 1 && s.SchemaVersion <= 5 {
			return Spec{}, errf("model", "the model field needs schema_version ≥ 6; use kind")
		}
		if strings.TrimSpace(s.Kind) != "" {
			return Spec{}, errf("model", "kind and model are mutually exclusive; set exactly one")
		}
		modelField, modelName = "model", s.Model
	}
	desc, ok := model.Parse(modelName)
	if !ok {
		return Spec{}, errf(modelField, "unknown model %q (want %s)", modelName, model.NamesList())
	}
	if s.SchemaVersion >= 1 && s.SchemaVersion < desc.MinSpecSchema {
		return Spec{}, errf(modelField, "model %q needs schema_version ≥ %d", desc.Canon, desc.MinSpecSchema)
	}
	c.Kind = desc.Canon
	c.Model = ""
	if desc.RequirePorts && c.Faults != nil && c.Faults.Churn != nil {
		return Spec{}, errf("faults.churn", "link churn cannot preserve the output-port labelling; use kind bc, od, or sym")
	}

	row, rowName, verr := parseRow(s.Row)
	if verr != nil {
		return Spec{}, verr
	}
	c.Row = rowName

	f, verr := lookupFunc(s.Function)
	if verr != nil {
		return Spec{}, verr
	}
	c.Function = f.Name

	static := info.static() && !s.Dynamic
	if !info.static() && !s.Dynamic {
		// A dynamic builder is always a Table 2 setting; record it.
		c.Dynamic = true
	}
	if desc.StaticOnly && !static {
		return Spec{}, errf(modelField, "%s is only meaningful for static networks", desc.Name)
	}

	switch row {
	case core.RowBound:
		if s.BoundN < n {
			return Spec{}, errf("bound_n", "row=bound needs bound_n ≥ n (%d), got %d", n, s.BoundN)
		}
	case core.RowLeader:
		if len(s.Leaders) == 0 {
			return Spec{}, errf("leaders", "row=leader needs at least one leader index")
		}
	}
	if row != core.RowBound && s.BoundN != 0 {
		return Spec{}, errf("bound_n", "bound_n is only meaningful with row=bound")
	}

	if len(s.Leaders) > 0 {
		seen := make(map[int]bool, len(s.Leaders))
		dedup := make([]int, 0, len(s.Leaders))
		for _, l := range s.Leaders {
			if l < 0 || l >= n {
				return Spec{}, errf("leaders", "leader index %d out of range [0, %d)", l, n)
			}
			if !seen[l] {
				seen[l] = true
				dedup = append(dedup, l)
			}
		}
		sort.Ints(dedup)
		c.Leaders = dedup
	} else {
		c.Leaders = nil
	}

	if len(s.Values) == 0 {
		c.Values = make([]float64, n)
		for i := range c.Values {
			c.Values[i] = defaultInput(i, desc.BinaryInputs)
		}
	} else {
		if len(s.Values) != n {
			return Spec{}, errf("values", "%d values for %d agents", len(s.Values), n)
		}
		for i, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return Spec{}, errf("values", "value %d is %v; inputs must be finite", i, v)
			}
			if desc.BinaryInputs && v != 0 && v != 1 {
				return Spec{}, errf("values", "value %d is %v; the %s model's reference algorithms take binary inputs (0 or 1)", i, v, desc.Name)
			}
		}
		c.Values = append([]float64(nil), s.Values...)
	}

	if s.MaxRounds < 0 || s.MaxRounds > MaxRoundsCeiling {
		return Spec{}, errf("max_rounds", "max_rounds %d out of range [0, %d]", s.MaxRounds, MaxRoundsCeiling)
	}
	if s.MaxRounds == 0 {
		c.MaxRounds = 10000
	}
	if s.Patience < 0 {
		return Spec{}, errf("patience", "patience %d must be ≥ 0", s.Patience)
	}
	if s.Patience == 0 {
		// Static cells stabilize within n+D rounds and certify with a
		// 2N+2 stretch, so 2n+10 suffices. Dynamic cells run asymptotic
		// Push-Sum variants whose outputs plateau for stretches that
		// scale with the Theorem 5.2 mixing budget (~n²·D) long before
		// converging; a linear window fires on those plateaus and
		// reports a premature fixed point as stable.
		c.Patience = 2*n + 10
		if c.Dynamic {
			c.Patience = n*n + 2*n + 10
		}
	}

	if s.Starts != nil {
		if len(s.Starts) != n {
			return Spec{}, errf("starts", "%d start rounds for %d agents", len(s.Starts), n)
		}
		for i, st := range s.Starts {
			if st < 1 {
				return Spec{}, errf("starts", "agent %d has start round %d, want ≥ 1", i, st)
			}
		}
		c.Starts = append([]int(nil), s.Starts...)
	}

	return c, nil
}

// defaultInput is agent i's private input when a spec gives no values:
// i+1, or i mod 2 under a model whose reference algorithms take binary
// inputs. Canonical fills these in, and the spec encoding a job keeps
// leaves them out (defaultInputs), so the rule lives here alone.
func defaultInput(i int, binary bool) float64 {
	if binary {
		return float64(i % 2)
	}
	return float64(i + 1)
}

// defaultInputs reports whether a canonical spec's values are exactly
// its model's default inputs, bit for bit: a binary model accepts an
// explicit -0, which encodes, and so hashes, differently from the
// default 0.
func defaultInputs(c Spec) bool {
	desc, ok := model.Parse(c.Kind)
	if !ok {
		return false
	}
	for i, v := range c.Values {
		if math.Float64bits(v) != math.Float64bits(defaultInput(i, desc.BinaryInputs)) {
			return false
		}
	}
	return true
}

// checkStray rejects graph parameters that the named builder does not
// consume, so that two different-looking specs never silently denote the
// same network (the canonical hash must be injective on meaning).
func (g GraphSpec) checkStray() *Error {
	type allowed struct{ n, kd, rc, extra, radius bool }
	var a allowed
	switch g.Builder {
	case "hypercube":
		a = allowed{kd: true}
	case "debruijn":
		a = allowed{kd: true}
	case "torus":
		a = allowed{rc: true}
	case "random", "randomsym":
		a = allowed{n: true, extra: true}
	case "geometric":
		a = allowed{n: true, radius: true}
	default:
		a = allowed{n: true}
	}
	if !a.n && g.N != 0 {
		return errf("graph.n", "builder %q does not take n", g.Builder)
	}
	if !a.kd && (g.K != 0 || g.D != 0) {
		return errf("graph.k", "builder %q does not take k/d", g.Builder)
	}
	if g.Builder == "hypercube" && g.K != 0 {
		return errf("graph.k", "builder hypercube does not take k")
	}
	if !a.rc && (g.Rows != 0 || g.Cols != 0) {
		return errf("graph.rows", "builder %q does not take rows/cols", g.Builder)
	}
	if !a.extra && g.Extra != 0 {
		return errf("graph.extra", "builder %q does not take extra", g.Builder)
	}
	if !a.radius && g.Radius != 0 {
		return errf("graph.radius", "builder %q does not take radius", g.Builder)
	}
	return nil
}

// Hash returns the canonical content hash of the spec: the hex SHA-256 of
// the canonical form's JSON encoding. Specs denoting the same computation
// hash identically; any semantic difference changes the hash.
func (s Spec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(appendCanonical(nil, c))
	return hex.EncodeToString(sum[:]), nil
}

// encodeScratch holds the buffers encodeCanonical hashes in, as
// encoding/json pools its own. A buffer over maxPooledEncoding is left to
// the GC instead, so a spec near MaxAgents does not pin megabytes for the
// next compile.
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledEncoding is the largest scratch buffer encodeScratch keeps:
// the encoding of about 10⁵ default inputs.
const maxPooledEncoding = 1 << 20

// encodeCanonical hashes a spec that is already in canonical form and
// returns the spec encoding a job keeps. The hash digests json.Marshal(c),
// default inputs written out, so it is the hash Spec.Hash gives; that
// encoding is written in a pooled scratch buffer and not kept. The kept
// bytes leave values out when they are the model's default inputs — they
// are json.Marshal(c) with Values cleared, which Decode and Compile read
// back to c and the same hash — and are the hashed encoding itself
// otherwise. A job retains them for its whole life, so they are returned
// at their exact size. Compile calls it directly so the canonicalization
// pass, which copies the length-n Values vector, runs once per compile.
func encodeCanonical(c Spec) (kept []byte, hash string) {
	buf := encodeScratch.Get().(*[]byte)
	enc := appendCanonical((*buf)[:0], c)
	sum := sha256.Sum256(enc)
	if defaultInputs(c) {
		c.Values = nil
		n := len(enc)
		enc = appendCanonical(enc, c)
		kept = bytes.Clone(enc[n:])
	} else {
		kept = bytes.Clone(enc)
	}
	if cap(enc) <= maxPooledEncoding {
		*buf = enc
		encodeScratch.Put(buf)
	}
	return kept, hex.EncodeToString(sum[:])
}

// seededBuilders are the static builders whose graph depends on Spec.Seed.
// For every other builder the seed only drives the delivery-order shuffle,
// so sweeps varying the seed on, say, a torus share one graph — which is
// exactly what the fingerprint must capture.
var seededBuilders = map[string]bool{"random": true, "randomsym": true, "geometric": true}

// graphFingerprint is the canonical graph fingerprint of a canonical spec:
// a sub-hash of the spec hash covering only the fields that determine the
// built round graph and its CSR flattening — the builder with its
// materialized dimensions, the seed when (and only when) the builder
// consumes it, and the communication model kind (the Snapshot's slot
// layout and validation depend on it). Specs producing byte-identical
// snapshots share a fingerprint; anything else differs.
//
// Dynamic builders, Dynamic-forced specs, and specs with starts or a
// churn plan return "": their round graphs change over time, so there is
// no single snapshot to share (DESIGN §5h). Message and agent faults
// (drop, dup, delay, stall, crash) leave the graph alone and keep it.
func graphFingerprint(c Spec, info builderInfo) string {
	if !info.static() || c.Dynamic || c.Starts != nil || (c.Faults != nil && c.Faults.Churn != nil) {
		return ""
	}
	key := struct {
		Graph GraphSpec `json:"graph"`
		Kind  string    `json:"kind"`
		Seed  int64     `json:"seed,omitempty"`
	}{Graph: c.Graph, Kind: c.Kind}
	if seededBuilders[c.Graph.Builder] {
		key.Seed = c.Seed
	}
	b, err := json.Marshal(key)
	if err != nil {
		return "" // unreachable for a canonical spec; degrade to uncached
	}
	sum := sha256.Sum256(b)
	return "g" + hex.EncodeToString(sum[:16])
}

// Encode returns the spec's JSON encoding (not canonicalized).
func Encode(s Spec) ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, errf("spec", "encoding failed: %v", err)
	}
	return b, nil
}

// Decode parses a JSON spec. Unknown fields and trailing data are
// rejected (DecodeJSON) — a service must not silently drop a parameter
// the client thought it set. All failures are typed *Error values; Decode
// never panics.
func Decode(data []byte) (Spec, error) {
	var s Spec
	if err := DecodeJSON(data, &s); err != nil {
		return Spec{}, errf("json", "%v", err)
	}
	return s, nil
}

// DecodeJSON decodes data, which must hold one JSON value and nothing
// after it but white space, into v, rejecting unknown fields. Decode reads
// a spec with it and anonnetd a batch request. The end of the input is
// checked with Token, not More: More reports false before a stray ']' or
// '}', and so would accept `{…}]garbage`.
func DecodeJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}
