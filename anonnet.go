// Package anonnet is a library for studying distributed function
// computation in anonymous networks, reproducing "Know Your Audience:
// Communication model and computability in anonymous networks"
// (Charron-Bost & Lambein-Monette, PODC 2024 brief announcement / HAL
// preprint hal-04334359).
//
// The library provides:
//
//   - the computing model of the paper (§2): anonymous deterministic agents
//     in synchronous rounds under four communication models — simple
//     broadcast, outdegree awareness, output port awareness, and symmetric
//     communications — on static or dynamic networks, with asynchronous
//     starts and state-corruption (self-stabilization) experiments;
//   - graph fibrations (§3): minimum bases, coverings, lifts, and the
//     executable lifting lemma;
//   - the paper's algorithms: gossip (set-based functions), the distributed
//     minimum-base / fibre-cardinality pipeline of §4.2 (frequency- and
//     multiset-based functions on static networks), Push-Sum and its
//     frequency form (§5), and Metropolis average consensus;
//   - Tables 1 and 2 as a decision procedure plus executable impossibility
//     witnesses for the negative cells.
//
// Quick start: compute the average on an anonymous directed ring where
// agents know only their outdegrees —
//
//	setting := anonnet.Setting{Kind: anonnet.OutdegreeAware, Static: true, Row: anonnet.RowNoHelp}
//	factory, _ := anonnet.NewFactory(anonnet.Average(), setting)
//	res, _ := anonnet.Compute(context.Background(), anonnet.Spec{
//		Factory:  factory,
//		Schedule: anonnet.NewStatic(anonnet.Ring(8)),
//		Inputs:   anonnet.Inputs(3, 1, 4, 1, 5, 9, 2, 6),
//		Kind:     setting.Kind,
//	})
//	fmt.Println(res.Outputs[0]) // 3.875, at every agent
//
// Compute takes functional options: WithEngine(Sequential|Sharded|
// Vectorized) selects the runner (the sharded engine spreads each round's
// agent work over cores, which pays only for compute-heavy agents; the
// vectorized kernel runs linear mass-passing algorithms over flat float64
// buffers with zero steady-state allocations, falling back to the
// sequential engine — identical traces — for algorithms it cannot
// express), WithParallelism sets the degree of
// parallelism (shard count for the sharded engine, worker count for the
// parallel vectorized kernel), WithOnRound streams per-round progress,
// WithPatience /
// WithMaxRounds tune stabilization detection, and WithFaults injects
// seeded deterministic faults (message drop/dup/delay, agent
// stall/crash-restart, link churn).
//
// The package re-exports the stable surface of the internal packages; the
// full machinery (fibrations, exact rational solvers, matrix analysis)
// lives under internal/ and is exercised by the cmd/ binaries and the test
// suite.
package anonnet

import (
	"context"
	"fmt"

	"anonnet/internal/core"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/faults"
	"anonnet/internal/fibration"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// Core model types.
type (
	// Graph is a directed multigraph with optional output-port labels.
	Graph = graph.Graph
	// Edge is one edge of a Graph.
	Edge = graph.Edge
	// Schedule is a dynamic graph 𝔾 = (𝔾(t)).
	Schedule = dynamic.Schedule
	// Input is an agent's private input (value + leader flag).
	Input = model.Input
	// Kind selects the communication model.
	Kind = model.Kind
	// Message is a message payload.
	Message = model.Message
	// Value is an output value.
	Value = model.Value
	// Agent is the transition-function side of an automaton.
	Agent = model.Agent
	// Factory builds the identical automaton run by every agent.
	Factory = model.Factory
	// Metric is a distance on outputs (δ of §2.3).
	Metric = model.Metric
	// Func is a multiset-based function annotated with its class.
	Func = funcs.Func
	// Class is one of the three function classes.
	Class = funcs.Class
	// Setting instantiates a cell of the computability tables.
	Setting = core.Setting
	// Row is a centralized-help row of the tables.
	Row = core.Row
	// Cell is a table entry: the exact class of computable functions.
	Cell = core.Cell
	// Runner executes rounds (any of the round engines).
	Runner = engine.Runner
	// Config configures an execution.
	Config = engine.Config
	// WitnessReport is the outcome of an impossibility witness run.
	WitnessReport = core.WitnessReport
)

// The registered communication models: the paper's four (§2.2) plus the
// registry-hosted one-bit broadcast model (σ : Q → {0,1}, after Blanc,
// Di Luna & Viglietta).
const (
	SimpleBroadcast = model.SimpleBroadcast
	OutdegreeAware  = model.OutdegreeAware
	OutputPortAware = model.OutputPortAware
	Symmetric       = model.Symmetric
	OneBitBroadcast = model.OneBitBroadcast
)

// One-bit broadcast model surface.
type (
	// Bit is the message type of the one-bit broadcast model.
	Bit = model.Bit
	// BitSender is the one-bit model's sending interface (σ : Q → {0,1}).
	BitSender = model.BitSender
)

// The centralized-help rows of Tables 1 and 2.
const (
	RowNoHelp = core.RowNoHelp
	RowBound  = core.RowBound
	RowSize   = core.RowSize
	RowLeader = core.RowLeader
)

// The three function classes (§2.3).
const (
	SetBased       = funcs.SetBased
	FrequencyBased = funcs.FrequencyBased
	MultisetBased  = funcs.MultisetBased
)

// Function library (§2.3's examples).
var (
	Min           = funcs.Min
	Max           = funcs.Max
	Range         = funcs.Range
	SupportSize   = funcs.SupportSize
	Average       = funcs.Average
	Mode          = funcs.Mode
	Median        = funcs.Median
	Variance      = funcs.Variance
	GeometricMean = funcs.GeometricMean
	FrequencyOf   = funcs.FrequencyOf
	ThresholdFreq = funcs.ThresholdFreq
	Sum           = funcs.Sum
	Count         = funcs.Count
	Catalog       = funcs.Catalog
)

// Metrics (§2.3).
var (
	// Discrete is the discrete metric δ₀ (exact computation).
	Discrete = model.Discrete
	// Euclid is the Euclidean metric δ₂ (asymptotic computation).
	Euclid = model.Euclid
)

// Graph builders.
var (
	NewGraph          = graph.New
	Ring              = graph.Ring
	BidirectionalRing = graph.BidirectionalRing
	Complete          = graph.Complete
	Path              = graph.Path
	Star              = graph.Star
	Hypercube         = graph.Hypercube
	Torus             = graph.Torus
	DeBruijn          = graph.DeBruijn
	RandomGeometric   = graph.RandomGeometric
	RandomDigraph     = graph.RandomStronglyConnected
	RandomSymmetric   = graph.RandomSymmetricConnected
)

// NewStatic wraps a fixed graph as a constant schedule.
func NewStatic(g *Graph) Schedule { return dynamic.NewStatic(g) }

// Dynamic adversaries (§5's network classes).
type (
	// RandomConnected draws an independent random connected symmetric
	// graph each round.
	RandomConnected = dynamic.RandomConnected
	// SplitRing alternates disconnected halves with bridges: no round is
	// connected, yet the dynamic diameter is finite.
	SplitRing = dynamic.SplitRing
	// Pairwise is the population-protocol-like random-matching adversary.
	Pairwise = dynamic.Pairwise
	// GrowingGaps is the §6 regime: connectivity recurs forever but no
	// finite dynamic diameter exists.
	GrowingGaps = dynamic.GrowingGaps
)

// Tables and dispatch (the paper's characterization).
var (
	// StaticCell returns Table 1's entry.
	StaticCell = core.StaticCell
	// DynamicCell returns Table 2's entry.
	DynamicCell = core.DynamicCell
	// Computable decides computability of a class in a setting.
	Computable = core.Computable
	// Rows lists the help rows in table order.
	Rows = core.Rows
	// NewFactory dispatches a function to the algorithm realizing the
	// setting's cell, or errors when the tables forbid it.
	NewFactory = core.NewFactory
)

// Fibration machinery (§3).
type (
	// Fibration is a graph fibration φ : Total → Base.
	Fibration = fibration.Fibration
	// View is a truncated in-view (universal-cover tree).
	View = fibration.View
)

// Fibration operations (§3).
var (
	// MinimumBase computes the minimum base of a valued graph and the
	// fibration onto it.
	MinimumBase = fibration.MinimumBase
	// IsFibrationPrime reports whether every fibration from the valued
	// graph is an isomorphism.
	IsFibrationPrime = fibration.IsPrime
	// ViewTree builds the depth-d in-view of a vertex.
	ViewTree = fibration.ViewTree
	// ViewPartition partitions vertices by view equality.
	ViewPartition = fibration.ViewPartition
	// LeaderElectionPossible decides leader election solvability
	// (fibration primality, after [5, 32]).
	LeaderElectionPossible = fibration.LeaderElectionPossible
	// RingFibration builds the §4.1 fibration R_n → R_p.
	RingFibration = fibration.RingFibration
)

// Impossibility machinery (§3, §4.1).
var (
	// CheckLifting machine-checks the lifting lemma on a fibration.
	CheckLifting = core.CheckLifting
	// RingImpossibilityWitness runs an algorithm on two frequency-
	// equivalent ring inputs and reports their (in)distinguishability.
	RingImpossibilityWitness = core.RingImpossibilityWitness
	// BroadcastSetCeilingWitness shows blind broadcast cannot recover
	// frequencies.
	BroadcastSetCeilingWitness = core.BroadcastSetCeilingWitness
)

// Engines.
var (
	// NewEngine returns the deterministic sequential round engine.
	NewEngine = engine.New
	// NewShardedEngine returns the sharded batch engine (shards ≤ 0 means
	// one per core).
	NewShardedEngine = engine.NewSharded
	// NewVectorizedEngine returns the zero-allocation vectorized kernel
	// for linear mass-passing algorithms; it fails with
	// ErrNotVectorizable when the algorithm does not implement the vector
	// contract (model.VectorAgent).
	NewVectorizedEngine = engine.NewVectorized
	// NewParallelVecEngine returns the multi-worker vectorized kernel
	// (workers ≤ 0 means one per core); traces are byte-identical to the
	// sequential engine, and checkpoints interchange with the
	// single-threaded kernel.
	NewParallelVecEngine = engine.NewParallelVec
	// ErrNotVectorizable reports a config the vectorized kernel cannot
	// run; check it with errors.Is.
	ErrNotVectorizable = engine.ErrNotVectorizable
	// CanVectorize probes whether a config is runnable by the vectorized
	// kernel.
	CanVectorize = engine.CanVectorize
	// RunUntilStable detects exact stabilization (discrete metric).
	RunUntilStable = engine.RunUntilStable
	// RunUntilClose detects ε-agreement with a known target.
	RunUntilClose = engine.RunUntilClose
	// RunRounds runs a fixed number of rounds, returning the history.
	RunRounds = engine.RunRounds
)

// Deterministic fault injection (the faultnet subsystem). A FaultPlan
// composes message drop/duplication/delay, agent stall and crash-restart,
// and link churn; every decision is a pure hash of (seed, round,
// participants), so equal seeds and plans give equal traces on all four
// engines, and a zero plan is bit-identical to no plan at all.
type (
	// FaultPlan describes the fault channels of one execution.
	FaultPlan = faults.Plan
	// ChurnPlan describes link churn within a FaultPlan.
	ChurnPlan = faults.ChurnPlan
)

// Churn connectivity-guard modes.
const (
	GuardOff    = faults.GuardOff
	GuardReject = faults.GuardReject
	GuardRepair = faults.GuardRepair
)

// Inputs builds an input slice from plain values.
func Inputs(vals ...float64) []Input {
	out := make([]Input, len(vals))
	for i, v := range vals {
		out[i] = Input{Value: v}
	}
	return out
}

// MarkLeaders returns a copy of in with the given agents marked as leaders
// (§4.5, §5.5).
func MarkLeaders(in []Input, leaders ...int) []Input {
	out := make([]Input, len(in))
	copy(out, in)
	for _, i := range leaders {
		out[i].Leader = true
	}
	return out
}

// EngineKind selects one of the round engines behind Compute.
type EngineKind int

// The engines. All produce identical traces for equal inputs (the A2
// property tests assert it); they differ only in how the rounds are
// scheduled onto the hardware.
const (
	// Sequential is the deterministic single-threaded engine (default);
	// fault-free set-flooding algorithms (gossip) run on the flooding
	// kernel, the sequential engine's single-threaded counterpart for
	// them.
	Sequential EngineKind = iota
	// Sharded partitions agents into one contiguous shard per core; each
	// shard fills its own agents' inboxes from the shared sent buffers,
	// with no locks. The shard barrier costs more than it saves on light
	// agents: on Push-Sum rings at two cores it runs at 0.30–0.95× the
	// sequential engine's speed from n = 16 to 1024 (BENCH_engine.json).
	// Its one measured lead is compute-heavy minimum-base agents on a
	// 12-ring, 96.8 vs 123.1 ms (EXPERIMENTS A2).
	Sharded
	// Vectorized executes linear mass-passing algorithms over flat
	// float64 buffers with zero steady-state allocations; algorithms that
	// do not implement the vector contract fall back to the sequential
	// path, whose traces the kernel reproduces byte for byte.
	Vectorized
)

// String names the engine as the job-spec JSON does. The names come from
// the engine package's single name table, shared with ParseEngineKind,
// the job-spec "engine" field, and the anonsim -engine flag.
func (e EngineKind) String() string {
	if names := engine.Names(); e >= 0 && int(e) < len(names) {
		return names[e]
	}
	return fmt.Sprintf("EngineKind(%d)", int(e))
}

// ParseEngineKind resolves an engine name — canonical ("seq", "shard",
// "vec") or alias ("sequential", "sharded", "vectorized", and "conc" or
// "concurrent", which name the retired goroutine-per-agent engine and
// select Sharded), case-insensitively — to its EngineKind. The empty
// string is Sequential.
func ParseEngineKind(name string) (EngineKind, error) {
	canon, ok := engine.CanonicalName(name)
	if !ok {
		return 0, fmt.Errorf("anonnet: unknown engine %q (want %s)", name, engine.NamesList())
	}
	for i, n := range engine.Names() {
		if n == canon {
			return EngineKind(i), nil
		}
	}
	return 0, fmt.Errorf("anonnet: unknown engine %q (want %s)", name, engine.NamesList())
}

// ParseModelKind resolves a communication-model name — canonical short
// name ("bc", "od", "op", "sym", "onebit"), paper name, or alias,
// case-insensitively — to its Kind. The names come from the model
// registry's single name table, shared with the job-spec "kind"/"model"
// fields, the anonnetd /v1/batch model axis, and the anonsim -kind flag.
func ParseModelKind(name string) (Kind, error) {
	k, err := model.ParseKind(name)
	if err != nil {
		return 0, fmt.Errorf("anonnet: unknown model %q (want %s)", name, model.NamesList())
	}
	return k, nil
}

// ModelNames lists the registered communication models by canonical short
// name, in registration order.
func ModelNames() []string { return model.Names() }

// Spec bundles what one Compute call executes: the algorithm (as an agent
// factory), the network, the private inputs, and the communication model.
type Spec struct {
	// Factory builds the identical automaton run by every agent.
	Factory Factory
	// Schedule is the (static or dynamic) network.
	Schedule Schedule
	// Inputs holds one private input per agent.
	Inputs []Input
	// Kind is the communication model.
	Kind Kind
}

// computeConfig is the option-resolved execution tuning.
type computeConfig struct {
	engine      EngineKind
	model       Kind
	parallelism int
	maxRounds   int
	patience    int
	seed        int64
	starts      []int
	onRound     func(round int, outputs []Value)
	faults      *faults.Plan
}

// Option tunes a Compute call.
type Option func(*computeConfig)

// WithEngine selects the round engine (default Sequential).
func WithEngine(e EngineKind) Option {
	return func(c *computeConfig) { c.engine = e }
}

// WithModel overrides the Spec's communication model (when nonzero):
// the option-driven way to sweep one Spec across models, mirroring how
// WithEngine sweeps it across engines. The model must be registered and
// the Spec's factory must build agents conforming to its sending
// interface — Compute fails with an error naming both otherwise.
func WithModel(k Kind) Option {
	return func(c *computeConfig) { c.model = k }
}

// WithParallelism sets the engine's degree of parallelism (default: one
// worker per core for the sharded engine, single-threaded for the
// vectorized one). With WithEngine(Sharded) it is the shard count; with
// WithEngine(Vectorized) and k ≥ 1 it selects the parallel vectorized
// kernel with k workers. Either count is capped at the number of agents.
// The trace is independent of k on every engine. It has no effect on the
// Sequential engine.
func WithParallelism(k int) Option {
	return func(c *computeConfig) { c.parallelism = k }
}

// WithMaxRounds bounds the execution (default 10000).
func WithMaxRounds(m int) Option {
	return func(c *computeConfig) { c.maxRounds = m }
}

// WithPatience sets the number of unchanged rounds treated as
// stabilization (default 2·n+10).
func WithPatience(p int) Option {
	return func(c *computeConfig) { c.patience = p }
}

// WithSeed drives delivery-order shuffling (default 0; equal seeds give
// equal traces).
func WithSeed(s int64) Option {
	return func(c *computeConfig) { c.seed = s }
}

// WithStarts gives per-agent activation rounds ≥ 1 for executions with
// asynchronous starts (§2.2).
func WithStarts(starts []int) Option {
	return func(c *computeConfig) { c.starts = starts }
}

// WithFaults injects deterministic faults into the execution: the plan's
// channels are applied under the Compute seed (WithSeed), so equal
// (seed, plan) pairs give byte-identical traces on every engine. A zero
// plan is a no-op. An invalid plan (probability outside [0, 1], unknown
// churn guard) fails the Compute call.
func WithFaults(p FaultPlan) Option {
	return func(c *computeConfig) { c.faults = &p }
}

// WithOnRound installs a per-round observer: after every completed round it
// receives the round number and the current output vector, a fresh slice
// it owns (round-by-round progress streaming). It wraps fn in an
// engine.Observer that reads the outputs for it; a run without one reads
// none.
func WithOnRound(fn func(round int, outputs []Value)) Option {
	return func(c *computeConfig) { c.onRound = fn }
}

// ComputeResult reports a Compute run.
type ComputeResult struct {
	// Outputs is the final output vector.
	Outputs []Value
	// Stable is true when the outputs stabilized exactly within the
	// budget (δ₀-computation); asymptotic algorithms may report false
	// while still having converged numerically.
	Stable bool
	// StabilizedAt is the first round from which outputs never changed
	// (when Stable).
	StabilizedAt int
	// Rounds is the number of rounds executed.
	Rounds int
}

// Compute runs spec until the outputs stabilize (or the round budget runs
// out) and returns the result. The context is checked at every round
// boundary, so cancelling it (or letting its deadline pass) aborts the
// execution with the context's error. Options select the engine and tune
// the harness; the default is the sequential engine with a 10000-round
// budget and patience 2·n+10. Use the engine API directly for
// fine-grained round-by-round control.
func Compute(ctx context.Context, spec Spec, opts ...Option) (*ComputeResult, error) {
	cc := computeConfig{}
	for _, o := range opts {
		o(&cc)
	}
	if cc.maxRounds <= 0 {
		cc.maxRounds = 10000
	}
	if cc.patience <= 0 {
		cc.patience = 2*len(spec.Inputs) + 10
	}
	cfg := Config{
		Schedule: spec.Schedule,
		Kind:     spec.Kind,
		Inputs:   spec.Inputs,
		Factory:  spec.Factory,
		Seed:     cc.seed,
		Starts:   cc.starts,
	}
	if cc.model != 0 {
		cfg.Kind = cc.model
	}
	if !cc.faults.IsZero() {
		inj, err := faults.NewInjector(cc.seed, *cc.faults)
		if err != nil {
			return nil, fmt.Errorf("anonnet: %w", err)
		}
		cfg.Faults = inj
		sched, err := faults.WrapSchedule(cfg.Schedule, cc.seed, cc.faults.Churn)
		if err != nil {
			return nil, fmt.Errorf("anonnet: %w", err)
		}
		cfg.Schedule = sched
	}
	if cc.engine < Sequential || cc.engine > Vectorized {
		return nil, fmt.Errorf("anonnet: unknown engine %v", cc.engine)
	}
	// One engine-selection point for the whole repo: engine.NewRunner maps
	// the name to the runner and handles the vec→seq fallback (identical
	// traces) itself.
	r, err := engine.NewRunner(cfg, cc.engine.String(), cc.parallelism)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var obs engine.Observer
	if fn := cc.onRound; fn != nil {
		obs = func(round int, r engine.Runner) { fn(round, r.Outputs()) }
	}
	res, err := engine.RunUntilStableCtx(ctx, r, model.Discrete, cc.patience, cc.maxRounds, obs)
	if err != nil {
		return nil, err
	}
	return &ComputeResult{
		Outputs:      res.Values(),
		Stable:       res.Stable,
		StabilizedAt: res.StabilizedAt,
		Rounds:       res.Rounds,
	}, nil
}
