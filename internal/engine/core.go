package engine

import (
	"errors"
	"fmt"
	"math/rand"

	"anonnet/internal/dynamic"
	"anonnet/internal/model"
	"anonnet/internal/topology"
)

// This file is the shared round pipeline under the three agent-holding
// runners (the flooding kernel holds sets, not agents): one core
// holds the configuration, the agents, the topology provider, the fault
// machinery, and the reused message buffers, and drives every round
// through the same stage sequence — restart, snapshot, send, exchange
// (deliver + fates + pending + shuffle), receive. The runners differ only
// in how they execute the stages (loop over agents, SoA kernel, SoA
// worker pool), which they express by implementing the executor
// interface; the core is the only engine file that touches graph,
// dynamic, or faults machinery, so cross-cutting features are wired once.

// Config describes one execution: the network, the communication model, the
// inputs, and the algorithm (as an agent factory).
type Config struct {
	// Schedule is the dynamic graph 𝔾; use dynamic.NewStatic for static
	// networks. Exactly one of Schedule and Snapshot is set.
	Schedule dynamic.Schedule
	// Snapshot is a static network given as its validated CSR
	// (topology.BuildSnapshot under Kind), set instead of Schedule: every
	// round is served this snapshot, with no graph, no validation and no
	// build — how a job runs on its topology-cache entry (see
	// job.Compiled.Build). It cannot be combined with Starts, whose
	// pre-start rounds rewrite the graph. The runner borrows the snapshot
	// and never recycles it, so the caller keeps it alive (pinned) for the
	// runner's lifetime.
	Snapshot *topology.Snapshot
	// Kind is the communication model.
	Kind model.Kind
	// Inputs holds one private input per agent.
	Inputs []model.Input
	// Factory builds the identical automaton run by every agent.
	Factory model.Factory
	// Seed drives the delivery-order shuffling that enforces multiset
	// semantics. Two runs with equal Config produce equal traces.
	Seed int64
	// Starts optionally gives per-agent activation rounds (≥ 1) for
	// executions with asynchronous starts (§2.2); nil means all agents
	// start at round 1.
	Starts []int
	// Faults is an optional deterministic fault injector (see
	// internal/faults). Nil means fault-free execution; the engines then
	// follow exactly the pre-fault code paths, so traces are bit-identical
	// to builds without the fault layer.
	Faults FaultInjector
}

func (c *Config) validate() error {
	var n int
	switch {
	case c.Schedule != nil && c.Snapshot != nil:
		return fmt.Errorf("engine: both schedule and snapshot set, want one")
	case c.Schedule != nil:
		n = c.Schedule.N()
	case c.Snapshot != nil:
		if c.Starts != nil {
			return fmt.Errorf("engine: start rounds need a schedule, not a snapshot (pre-start rounds rewrite the graph)")
		}
		n = c.Snapshot.N()
	default:
		return fmt.Errorf("engine: nil schedule")
	}
	if _, err := model.Lookup(c.Kind); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if c.Factory == nil {
		return fmt.Errorf("engine: nil agent factory")
	}
	if len(c.Inputs) != n {
		return fmt.Errorf("engine: %d inputs for %d agents", len(c.Inputs), n)
	}
	if c.Starts != nil && len(c.Starts) != len(c.Inputs) {
		return fmt.Errorf("engine: %d start rounds for %d agents", len(c.Starts), len(c.Inputs))
	}
	for i, s := range c.Starts {
		if s < 1 {
			return fmt.Errorf("engine: agent %d has start round %d, want ≥ 1", i, s)
		}
	}
	return nil
}

// executor is the contract a runner implements to plug into the shared
// round pipeline. The core calls the stages in order for round t, handing
// each the validated topology snapshot; an error from any stage aborts the
// round before the round counter advances. exchange covers delivery, fault
// fates, pending flushes, and the seeded multiset shuffle in one stage
// because the vectorized kernel fuses them per destination.
type executor interface {
	// restart applies the crash-restart fault channel before the round.
	restart(t int) error
	// send drives the sending functions of the active agents into the
	// core's (or the executor's own) sent buffers.
	send(t int, snap *topology.Snapshot) error
	// exchange routes the sent messages into per-destination multisets:
	// fault fates, due delayed deliveries, message accounting, and the
	// seeded shuffle that erases any delivery order.
	exchange(t int, snap *topology.Snapshot) error
	// receive applies the transition functions of the active agents.
	receive(t int, snap *topology.Snapshot) error
}

// core is the engine-independent half of a runner: configuration, agents,
// topology provider, fault state, RNG, statistics, and the reused
// per-round buffers. Each runner embeds a *core and implements executor;
// the shared Runner surface (N, Round, Outputs, Stats, Corrupt, Close) is
// promoted from here.
type core struct {
	cfg    Config
	name   string // runner name, for error messages
	desc   *model.Descriptor
	topo   *topology.Provider
	agents []model.Agent
	round  int
	rng    *rand.Rand
	src    *countingSource // rng's source, counted for checkpoint/resume
	closed bool

	messages int64
	faults   FaultStats
	pend     *pendingStore

	// active[i] reports whether agent i participates in the current round
	// (started and not stalled); allOn short-circuits the recomputation
	// when there are no async starts and no faults.
	active []bool
	allOn  bool

	// Per-round buffers reused across Steps, cut by buffers on the first
	// round the sequential engine sends: sent[i] holds agent i's outgoing
	// messages, inboxes[j] the deliveries to agent j. Agents only see an
	// inbox for the duration of Receive (the model.Agent contract), so
	// truncate-and-refill is safe.
	sent    [][]model.Message
	inboxes [][]model.Message
}

// newCore validates cfg, instantiates the agents, and assembles the shared
// state, including the topology provider over the snapshot or the
// (possibly async-start wrapped) schedule.
func newCore(cfg Config, name string) (*core, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	desc, err := model.Lookup(cfg.Kind)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	topo, err := newProvider(cfg)
	if err != nil {
		return nil, err
	}
	agents := make([]model.Agent, len(cfg.Inputs))
	for i, in := range cfg.Inputs {
		agents[i] = cfg.Factory(in)
		if agents[i] == nil {
			return nil, fmt.Errorf("engine: factory returned nil agent for input %d", i)
		}
	}
	for i, a := range agents {
		if !desc.Conforms(a) {
			return nil, fmt.Errorf("engine: agent %d (%T) does not implement %s, the sender interface of the %s model (registered models: %s)",
				i, a, desc.Iface, desc.Name, model.NamesList())
		}
	}
	n := len(agents)
	src := newCountingSource(cfg.Seed)
	c := &core{
		cfg:    cfg,
		name:   name,
		desc:   desc,
		topo:   topo,
		agents: agents,
		rng:    rand.New(src),
		src:    src,
		active: make([]bool, n),
		allOn:  cfg.Starts == nil,
	}
	if cfg.Faults != nil {
		c.pend = newPendingStore(n)
	}
	if c.allOn {
		for i := range c.active {
			c.active[i] = true
		}
	}
	return c, nil
}

// newProvider returns the topology provider of a validated cfg: over the
// snapshot, or over the (async-start wrapped) schedule.
func newProvider(cfg Config) (*topology.Provider, error) {
	switch {
	case cfg.Snapshot != nil:
		return topology.NewStaticProvider(cfg.Snapshot), nil
	case cfg.Starts != nil:
		wrapped, err := dynamic.NewAsyncStart(cfg.Schedule, cfg.Starts)
		if err != nil {
			return nil, err
		}
		return topology.NewProvider(wrapped, cfg.Kind), nil
	default:
		return topology.NewProvider(cfg.Schedule, cfg.Kind), nil
	}
}

// step executes one round through the shared pipeline: restart, activity
// mask + snapshot, then the executor's send, exchange, and receive stages.
// Every runner's Step is this method with itself as the executor.
func (c *core) step(ex executor) error {
	if c.closed {
		return fmt.Errorf("engine: Step on closed %s engine", c.name)
	}
	t := c.round + 1
	if err := ex.restart(t); err != nil {
		return err
	}
	snap, err := c.beginRound(t)
	if err != nil {
		return err
	}
	if err := ex.send(t, snap); err != nil {
		return err
	}
	if err := ex.exchange(t, snap); err != nil {
		return err
	}
	if err := ex.receive(t, snap); err != nil {
		return err
	}
	c.round = t
	return nil
}

// beginRound refreshes the activity mask (async starts, stalls) and
// fetches the validated topology snapshot for round t. Static schedules
// hit the provider's pointer-identity cache and pay neither validation nor
// a rebuild.
func (c *core) beginRound(t int) (*topology.Snapshot, error) {
	if !c.allOn || c.cfg.Faults != nil {
		for i := range c.active {
			c.active[i] = c.cfg.Starts == nil || t >= c.cfg.Starts[i]
		}
		applyStalls(c.cfg.Faults, t, c.active)
	}
	return c.topo.Round(t)
}

// restartAll applies the crash-restart channel to the core's agents; the
// sequential engine's restart stage (the vectorized kernels re-initialize
// through the vector contract instead).
func (c *core) restartAll(t int) error {
	return restartAgents(c.cfg.Faults, t, c.cfg.Factory, c.cfg.Inputs, c.agents)
}

// buffers cuts the per-round message buffers out of two slabs on the
// first call, sizing them by that round's snapshot. Under a
// broadcast-shaped model sent[i] is a one-slot window of the first slab
// that the model's Plan appends into; under the output-port model it
// stays nil and takes the slice SendPorts returns. inboxes[j] is a window
// of the second slab holding j's in-degree, its capacity capped there: a
// later round that delivers more (duplicates, delayed flushes, a denser
// dynamic graph) regrows that inbox alone instead of writing into its
// neighbour's window. The sequential engine calls it before its send
// stage; the vectorized kernels never do.
func (c *core) buffers(snap *topology.Snapshot) {
	if c.inboxes != nil {
		return
	}
	n := len(c.agents)
	c.sent = make([][]model.Message, n)
	if !c.desc.PortSlots {
		slab := make([]model.Message, n)
		for i := range c.sent {
			c.sent[i] = slab[i : i : i+1]
		}
	}
	slab := make([]model.Message, snap.Start[n])
	c.inboxes = make([][]model.Message, n)
	for j := range c.inboxes {
		lo, hi := snap.Start[j], snap.Start[j+1]
		c.inboxes[j] = slab[lo:lo:hi]
	}
}

// sendAll drives the sending functions of the active agents into the
// reused per-agent sent buffers. The call through c.desc.Plan is the
// engines' ONE model-dispatch site: every registered model's σ enters the
// generic round pipeline here, and nowhere else (the vectorized kernels
// write their flat rows through c.desc.VecSend instead).
func (c *core) sendAll(snap *topology.Snapshot) error {
	for i := range c.agents {
		if !c.active[i] {
			c.sent[i] = c.sent[i][:0]
			continue
		}
		msgs, err := c.desc.Plan(c.agents[i], snap.OutDegree(i), c.sent[i])
		if err != nil {
			return fmt.Errorf("engine: agent %d: %w", i, err)
		}
		c.sent[i] = msgs
	}
	return nil
}

// deliverAll fills every inbox from the snapshot's destination-major
// layout, applying fault fates (self-loops exempt) and flushing due
// delayed messages, and adds the messages delivered to active
// destinations and the faults applied to the core's counters. Within a
// destination the fill order is the delivery-order invariant: sources
// ascending, edges in insertion order, then pending deliveries —
// identical across all runners, which is what keeps the traces
// byte-identical.
func (c *core) deliverAll(snap *topology.Snapshot, t int) error {
	inj := c.cfg.Faults
	var delivered int64
	for j := range c.inboxes {
		inbox := c.inboxes[j][:0]
		if c.active[j] {
			for e := snap.Start[j]; e < snap.Start[j+1]; e++ {
				src := snap.Src[e]
				if !c.active[src] {
					continue
				}
				slot := snap.Slot[e]
				if slot < 0 || int(slot) >= len(c.sent[src]) {
					return fmt.Errorf("engine: agent %d: edge port %d out of range 1..%d",
						src, snap.Port[e], len(c.sent[src]))
				}
				m := c.sent[src][slot]
				if inj == nil || int(src) == j {
					inbox = append(inbox, m)
					continue
				}
				applyFate(inj.MessageFate(t, int(src), j), m, t, j, &inbox, c.pend, &c.faults)
			}
		}
		if c.pend != nil {
			inbox = c.pend.flush(j, t, inbox, c.active[j])
		}
		if c.active[j] {
			delivered += int64(len(inbox))
		}
		c.inboxes[j] = inbox
	}
	c.messages += delivered
	return nil
}

// shuffleAll permutes every active inbox with the shared seeded RNG, in
// agent-index order — its own pass after delivery, because the RNG draw
// sequence is part of the trace contract.
func (c *core) shuffleAll() {
	for j := range c.inboxes {
		if c.active[j] {
			shuffleMessages(c.inboxes[j], c.rng)
		}
	}
}

// receiveAll applies the transition functions of the active agents.
func (c *core) receiveAll() {
	for j, a := range c.agents {
		if c.active[j] {
			a.Receive(c.inboxes[j])
		}
	}
}

// N returns the number of agents.
func (c *core) N() int { return len(c.agents) }

// Round returns the number of completed rounds.
func (c *core) Round() int { return c.round }

// Agent returns agent i, for white-box tests.
func (c *core) Agent(i int) model.Agent { return c.agents[i] }

// Outputs returns the current outputs x_i(t).
func (c *core) Outputs() []model.Value {
	out := make([]model.Value, len(c.agents))
	for i, a := range c.agents {
		out[i] = a.Output()
	}
	return out
}

// Stats returns cumulative execution statistics.
func (c *core) Stats() Stats {
	return Stats{Rounds: c.round, MessagesDelivered: c.messages, Faults: c.faults}
}

// TopologyStats reports the topology provider's build counters: how many
// CSR snapshots this runner has built and the time spent building. A
// static schedule shows exactly one build however many rounds ran.
func (c *core) TopologyStats() topology.BuildStats {
	return c.topo.Stats()
}

// Corrupt scrambles every Corruptible agent's state, for
// self-stabilization experiments; it reports how many agents were
// corrupted (none after Close). Every runner shares it: between rounds
// the calling goroutine owns all agents.
func (c *core) Corrupt(junk int64) int {
	if c.closed {
		return 0
	}
	count := 0
	for i, a := range c.agents {
		if cr, ok := a.(model.Corruptible); ok {
			cr.Corrupt(junk + int64(i)*7919)
			count++
		}
	}
	return count
}

// Close marks the runner closed; Step after Close fails. The parallel
// vectorized kernel, the one runner with resources to release (its worker
// goroutines), overrides it.
func (c *core) Close() {
	c.closed = true
}

// shuffleMessages randomizes delivery order so agents cannot rely on any
// ordering of the received multiset.
func shuffleMessages(msgs []model.Message, rng *rand.Rand) {
	rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
}

// NewRunner constructs the named runner over cfg: "seq" (or "") for the
// sequential path, and "vec" for the vectorized kernel — single-threaded
// when shards ≤ 0, the parallel kernel with shards workers otherwise.
// "shard", the name of the retired sharded engine, runs the sequential
// path and ignores shards. The sequential path, which "vec" also takes on
// a workload that is not vectorizable, is the flooding kernel when the
// agents are model.SetAgents it can run (see Flood), and the sequential
// engine otherwise; the traces are identical either way. Names resolve
// through the engine-name table, so the aliases ("sequential", "conc",
// "vectorized", …) work too. This is the one engine-selection point
// shared by the facade and the job runner.
func NewRunner(cfg Config, name string, shards int) (Runner, error) {
	canon, ok := CanonicalName(name)
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q (want %s)", name, NamesList())
	}
	if canon != "vec" {
		return newSequential(cfg)
	}
	var r Runner
	var err error
	if shards > 0 {
		r, err = NewParallelVec(cfg, shards)
	} else {
		r, err = NewVectorized(cfg)
	}
	if errors.Is(err, ErrNotVectorizable) {
		return newSequential(cfg)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// newSequential returns the flooding kernel over cfg when it can run it,
// and the sequential engine otherwise.
func newSequential(cfg Config) (Runner, error) {
	f, err := NewFlood(cfg)
	if errors.Is(err, ErrNotFloodable) {
		return New(cfg)
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}
