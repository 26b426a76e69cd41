package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"anonnet/internal/dynamic"
	"anonnet/internal/graph"
	"anonnet/internal/model"
	"anonnet/internal/topology"
)

// countAgent counts received messages and sums received payloads; it
// implements all sender interfaces and is deliberately order-insensitive,
// as the model demands.
type countAgent struct {
	value    float64
	received int
	sum      float64
	lastOut  int
}

func (a *countAgent) Send() model.Message { return a.value }

func (a *countAgent) SendOutdegree(d int) model.Message {
	a.lastOut = d
	return a.value
}

func (a *countAgent) SendPorts(d int) []model.Message {
	a.lastOut = d
	out := make([]model.Message, d)
	for i := range out {
		out[i] = a.value + float64(i) // port-dependent payload
	}
	return out
}

func (a *countAgent) Receive(msgs []model.Message) {
	a.received += len(msgs)
	for _, m := range msgs {
		if f, ok := m.(float64); ok {
			a.sum += f
		}
	}
}

func (a *countAgent) Output() model.Value { return a.sum }

func countFactory(in model.Input) model.Agent { return &countAgent{value: in.Value} }

func inputs(vals ...float64) []model.Input {
	out := make([]model.Input, len(vals))
	for i, v := range vals {
		out[i] = model.Input{Value: v}
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	g := dynamic.NewStatic(graph.Ring(3))
	snap, err := topology.BuildSnapshot(3, graph.RingArcs(3), model.SimpleBroadcast)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil schedule", Config{Kind: model.SimpleBroadcast, Inputs: inputs(1, 2, 3), Factory: countFactory}},
		{"bad kind", Config{Schedule: g, Kind: 0, Inputs: inputs(1, 2, 3), Factory: countFactory}},
		{"nil factory", Config{Schedule: g, Kind: model.SimpleBroadcast, Inputs: inputs(1, 2, 3)}},
		{"wrong inputs", Config{Schedule: g, Kind: model.SimpleBroadcast, Inputs: inputs(1), Factory: countFactory}},
		{"bad starts", Config{Schedule: g, Kind: model.SimpleBroadcast, Inputs: inputs(1, 2, 3), Factory: countFactory, Starts: []int{0, 1, 1}}},
		{"schedule and snapshot", Config{Schedule: g, Snapshot: snap, Kind: model.SimpleBroadcast, Inputs: inputs(1, 2, 3), Factory: countFactory}},
		{"snapshot with starts", Config{Snapshot: snap, Kind: model.SimpleBroadcast, Inputs: inputs(1, 2, 3), Factory: countFactory, Starts: []int{1, 2, 1}}},
		{"snapshot wrong inputs", Config{Snapshot: snap, Kind: model.SimpleBroadcast, Inputs: inputs(1, 2), Factory: countFactory}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", c.name)
		}
	}
}

func TestBroadcastDelivery(t *testing.T) {
	// On R_3 every agent has in-edges from itself and its predecessor.
	e, err := New(Config{
		Schedule: dynamic.NewStatic(graph.Ring(3)),
		Kind:     model.SimpleBroadcast,
		Inputs:   inputs(1, 10, 100),
		Factory:  countFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	outs := e.Outputs()
	want := []float64{101, 11, 110} // self + predecessor
	for i, w := range want {
		if outs[i] != w {
			t.Fatalf("outputs = %v, want %v", outs, want)
		}
	}
	a := e.Agent(0).(*countAgent)
	if a.received != 2 {
		t.Fatalf("agent 0 received %d messages, want 2", a.received)
	}
}

func TestOutdegreePassedToSender(t *testing.T) {
	e, err := New(Config{
		Schedule: dynamic.NewStatic(graph.Star(4)),
		Kind:     model.OutdegreeAware,
		Inputs:   inputs(0, 0, 0, 0),
		Factory:  countFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	// Center of Star(4): self-loop + 3 leaves = outdegree 4.
	if got := e.Agent(0).(*countAgent).lastOut; got != 4 {
		t.Fatalf("center outdegree %d, want 4", got)
	}
	if got := e.Agent(1).(*countAgent).lastOut; got != 2 {
		t.Fatalf("leaf outdegree %d, want 2", got)
	}
}

func TestPortRouting(t *testing.T) {
	// Directed 2-ring with ports: each vertex sends value+0 on port 1
	// (self-loop), value+1 on port 2 (successor) — check the payloads land
	// per-edge.
	g := graph.Ring(2).AssignPorts()
	e, err := New(Config{
		Schedule: dynamic.NewStatic(g),
		Kind:     model.OutputPortAware,
		Inputs:   inputs(10, 20),
		Factory:  countFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	// Vertex 0 receives: its own port-1 message (10+0) and vertex 1's
	// port-2 message (20+1) = 31.
	outs := e.Outputs()
	if outs[0] != 31.0 || outs[1] != 31.0 {
		t.Fatalf("outputs = %v, want [31 31]", outs)
	}
}

func TestSymmetricKindRejectsAsymmetricGraph(t *testing.T) {
	e, err := New(Config{
		Schedule: dynamic.NewStatic(graph.Ring(3)), // directed
		Kind:     model.Symmetric,
		Inputs:   inputs(1, 2, 3),
		Factory:  countFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err == nil {
		t.Fatal("Step accepted an asymmetric graph under the symmetric model")
	}
}

func TestPortKindRejectsUnlabelledGraph(t *testing.T) {
	e, err := New(Config{
		Schedule: dynamic.NewStatic(graph.Ring(3)),
		Kind:     model.OutputPortAware,
		Inputs:   inputs(1, 2, 3),
		Factory:  countFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err == nil {
		t.Fatal("Step accepted an unlabelled graph under the port model")
	}
}

func TestAsyncStartsIsolateAgents(t *testing.T) {
	// Agent 2 starts at round 3: before that it must receive nothing and
	// its neighbours must not hear it.
	e, err := New(Config{
		Schedule: dynamic.NewStatic(graph.Complete(3)),
		Kind:     model.SimpleBroadcast,
		Inputs:   inputs(1, 10, 100),
		Factory:  countFactory,
		Starts:   []int{1, 1, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Agent(2).(*countAgent).received; got != 0 {
		t.Fatalf("sleeping agent received %d messages", got)
	}
	if got := e.Agent(0).(*countAgent).sum; got != 22 { // (1+10) × 2 rounds
		t.Fatalf("agent 0 sum = %v, want 22", got)
	}
	if err := e.Step(); err != nil { // round 3: everyone active
		t.Fatal(err)
	}
	if got := e.Agent(2).(*countAgent).received; got != 3 {
		t.Fatalf("agent 2 received %d messages in its first round, want 3", got)
	}
	if got := e.Agent(0).(*countAgent).sum; got != 22+111 {
		t.Fatalf("agent 0 sum = %v, want 133", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []model.Value {
		e, err := New(Config{
			Schedule: dynamic.NewStatic(graph.RandomStronglyConnected(6, 5, rand.New(rand.NewSource(4)))),
			Kind:     model.SimpleBroadcast,
			Inputs:   inputs(1, 2, 3, 4, 5, 6),
			Factory:  countFactory,
			Seed:     99,
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 10; r++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return e.Outputs()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic outputs: %v vs %v", a, b)
		}
	}
}

// recorderAgent records the exact order of received payloads, to verify the
// engines shuffle identically.
type recorderAgent struct {
	value float64
	log   []string
}

func (a *recorderAgent) Send() model.Message { return a.value }
func (a *recorderAgent) Receive(msgs []model.Message) {
	for _, m := range msgs {
		a.log = append(a.log, fmt.Sprint(m))
	}
	a.log = append(a.log, "|")
}
func (a *recorderAgent) Output() model.Value { return fmt.Sprint(a.log) }

func TestWrongAgentInterfaceRejected(t *testing.T) {
	// A broadcaster-only agent cannot run under the port model.
	type bcOnly struct{ countAgent }
	_, err := New(Config{
		Schedule: dynamic.NewStatic(graph.Ring(2).AssignPorts()),
		Kind:     model.OutputPortAware,
		Inputs:   inputs(1, 2),
		Factory: func(in model.Input) model.Agent {
			return struct{ model.Broadcaster }{&countAgent{value: in.Value}}
		},
	})
	if err == nil {
		t.Fatal("New accepted an agent lacking the port sender interface")
	}
	_ = bcOnly{}
}

func TestRunUntilStable(t *testing.T) {
	// Gossip-like: countAgent sums grow forever on a ring, so never
	// stable; a frozen agent is immediately stable.
	frozen := func(model.Input) model.Agent { return &frozenAgent{} }
	e, err := New(Config{
		Schedule: dynamic.NewStatic(graph.Ring(3)),
		Kind:     model.SimpleBroadcast,
		Inputs:   inputs(1, 2, 3),
		Factory:  frozen,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunUntilStable(e, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable || res.StabilizedAt != 0 {
		t.Fatalf("frozen agent: stable=%t at %d, want stable at 0", res.Stable, res.StabilizedAt)
	}
}

type frozenAgent struct{}

func (a *frozenAgent) Send() model.Message          { return nil }
func (a *frozenAgent) Receive(msgs []model.Message) {}
func (a *frozenAgent) Output() model.Value          { return 7.0 }

func TestRunUntilClose(t *testing.T) {
	e, err := New(Config{
		Schedule: dynamic.NewStatic(graph.Ring(3)),
		Kind:     model.SimpleBroadcast,
		Inputs:   inputs(7, 7, 7),
		Factory:  func(model.Input) model.Agent { return &frozenAgent{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunUntilClose(e, 7.0, model.Euclid, 1e-9, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Rounds != 1 {
		t.Fatalf("converged=%t rounds=%d, want true at round 1", res.Converged, res.Rounds)
	}
}

func TestRunRoundsHistory(t *testing.T) {
	e, err := New(Config{
		Schedule: dynamic.NewStatic(graph.Ring(3)),
		Kind:     model.SimpleBroadcast,
		Inputs:   inputs(1, 2, 3),
		Factory:  countFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := RunRounds(e, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 || len(hist[0]) != 3 {
		t.Fatalf("history shape %dx%d, want 4x3", len(hist), len(hist[0]))
	}
}

func TestMultisetSemanticsShuffled(t *testing.T) {
	// Over many seeds, delivery order must vary — catching agents that
	// secretly rely on order.
	orders := map[string]bool{}
	for seed := int64(0); seed < 8; seed++ {
		e, err := New(Config{
			Schedule: dynamic.NewStatic(graph.Complete(4)),
			Kind:     model.SimpleBroadcast,
			Inputs:   inputs(1, 2, 3, 4),
			Factory:  func(in model.Input) model.Agent { return &recorderAgent{value: in.Value} },
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		orders[fmt.Sprint(e.Outputs()[0])] = true
	}
	if len(orders) < 2 {
		t.Fatalf("delivery order never varied across seeds: %v", keys(orders))
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestStepRejectsShapeShiftingSchedule(t *testing.T) {
	// A schedule whose vertex count changes mid-run is a bug in the
	// adversary; the engine must surface it, not corrupt state.
	bad := &dynamic.Func{Vertices: 3, Fn: func(tt int) *graph.Graph {
		if tt < 3 {
			return graph.Complete(3)
		}
		return graph.Complete(4)
	}}
	e, err := New(Config{
		Schedule: bad,
		Kind:     model.SimpleBroadcast,
		Inputs:   inputs(1, 2, 3),
		Factory:  countFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if err := e.Step(); err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
	}
	if err := e.Step(); err == nil {
		t.Fatal("engine accepted a schedule that changed vertex count")
	}
}

// TestRunnerLifecycle pins the lifecycle every runner NewRunner builds
// shares through the core: Corrupt reaches every Corruptible agent, Close
// is idempotent, Step after Close fails, and Corrupt after Close is a
// no-op that reports 0.
func TestRunnerLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		typ    string
	}{
		{"seq", 0, "*engine.Engine"},
		{"shard", 2, "*engine.Engine"},
		{"sharded", 0, "*engine.Engine"},
		{"conc", 0, "*engine.Engine"},
		{"concurrent", 3, "*engine.Engine"},
		{"vec", 0, "*engine.Vectorized"},
		{"vec", 2, "*engine.ParallelVec"},
	} {
		t.Run(fmt.Sprintf("%s/%d", tc.name, tc.shards), func(t *testing.T) {
			r, err := NewRunner(Config{
				Schedule: dynamic.NewStatic(graph.Ring(3)),
				Kind:     model.SimpleBroadcast,
				Inputs:   inputs(1, 2, 3),
				Factory:  func(in model.Input) model.Agent { return &corruptible{} },
			}, tc.name, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%T", r); got != tc.typ {
				t.Fatalf("NewRunner(%q, %d) built %s, want %s", tc.name, tc.shards, got, tc.typ)
			}
			if err := r.Step(); err != nil {
				t.Fatal(err)
			}
			if got := r.Corrupt(5); got != 3 {
				t.Fatalf("Corrupt reported %d agents, want 3", got)
			}
			for i := 0; i < 3; i++ {
				if !r.(interface{ Agent(int) model.Agent }).Agent(i).(*corruptible).hit {
					t.Fatalf("agent %d not corrupted", i)
				}
			}
			r.Close()
			r.Close() // idempotent
			if err := r.Step(); err == nil {
				t.Fatal("Step after Close should fail")
			}
			if got := r.Corrupt(5); got != 0 {
				t.Fatalf("Corrupt after Close reported %d", got)
			}
		})
	}
}

// concurrentRunner builds a runner under the retired "concurrent" engine
// name, which still resolves (to the sequential path), over the given
// agents.
func concurrentRunner(t *testing.T, f model.Factory) Runner {
	t.Helper()
	r, err := NewRunner(Config{
		Schedule: dynamic.NewStatic(graph.Ring(3)),
		Kind:     model.SimpleBroadcast,
		Inputs:   inputs(1, 2, 3),
		Factory:  f,
	}, "concurrent", 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestConcurrentCloseIdempotent: a runner built under the "concurrent"
// name keeps the old runner's Close contract.
func TestConcurrentCloseIdempotent(t *testing.T) {
	c := concurrentRunner(t, countFactory)
	c.Close()
	c.Close()
	if err := c.Step(); err == nil {
		t.Fatal("Step after Close should fail")
	}
}

// TestConcurrentCorrupt: a runner built under the "concurrent" name keeps
// the old runner's Corrupt contract.
func TestConcurrentCorrupt(t *testing.T) {
	c := concurrentRunner(t, func(in model.Input) model.Agent { return &corruptible{} })
	defer c.Close()
	if got := c.Corrupt(5); got != 3 {
		t.Fatalf("Corrupt reported %d agents, want 3", got)
	}
	for i := 0; i < 3; i++ {
		if !c.(interface{ Agent(int) model.Agent }).Agent(i).(*corruptible).hit {
			t.Fatalf("agent %d not corrupted", i)
		}
	}
	c.Close()
	if got := c.Corrupt(5); got != 0 {
		t.Fatalf("Corrupt after Close reported %d", got)
	}
}

// corruptible is a frozen agent that records corruption. It also
// implements the vector contract (width 1), so NewRunner's "vec" builds
// the vectorized kernels over it instead of falling back to seq.
type corruptible struct {
	frozenAgent
	hit bool
}

func (c *corruptible) Corrupt(int64)                { c.hit = true }
func (c *corruptible) InitVector([]float64) int     { return 1 }
func (c *corruptible) SendVector(int, []float64)    {}
func (c *corruptible) ReceiveVector([]float64, int) {}

func TestRunUntilStableValidation(t *testing.T) {
	e, err := New(Config{
		Schedule: dynamic.NewStatic(graph.Ring(3)),
		Kind:     model.SimpleBroadcast,
		Inputs:   inputs(1, 2, 3),
		Factory:  countFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunUntilStable(e, 0, 5); err == nil {
		t.Fatal("patience 0 accepted")
	}
}

func TestSequentialCorruptCounts(t *testing.T) {
	e, err := New(Config{
		Schedule: dynamic.NewStatic(graph.Ring(2)),
		Kind:     model.SimpleBroadcast,
		Inputs:   inputs(1, 2),
		Factory:  func(in model.Input) model.Agent { return &frozenAgent{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Corrupt(1); got != 0 {
		t.Fatalf("frozen agents are not corruptible, got %d", got)
	}
}

func TestStatsCountMessages(t *testing.T) {
	// R_3 with self-loops has 6 edges → 6 deliveries per round.
	e, err := New(Config{
		Schedule: dynamic.NewStatic(graph.Ring(3)),
		Kind:     model.SimpleBroadcast,
		Inputs:   inputs(1, 2, 3),
		Factory:  countFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Rounds != 4 || st.MessagesDelivered != 24 {
		t.Fatalf("stats = %+v, want 4 rounds and 24 messages", st)
	}
}
