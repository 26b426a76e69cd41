package engine_test

// The flooding kernel against the sequential engine: the kernel is a
// re-implementation of gossip's rounds over arenas, so its contract is a
// differential one — equal per-round outputs, equal message counts, and
// equal errors, on every graph family, model, schedule and input shape a
// gossip run can meet.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"anonnet/internal/algorithms/gossip"
	"anonnet/internal/algorithms/pushsum"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/faults"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// floodBuilders are the graph families the differential fuzz draws from:
// every static family of the job's builder table, sized from n, and the
// three dynamic schedules.
var floodBuilders = []struct {
	name string
	mk   func(n int, seed int64) (static *graph.Graph, sched dynamic.Schedule)
}{
	{"ring", func(n int, _ int64) (*graph.Graph, dynamic.Schedule) { return graph.Ring(n), nil }},
	{"bidiring", func(n int, _ int64) (*graph.Graph, dynamic.Schedule) { return graph.BidirectionalRing(n), nil }},
	{"star", func(n int, _ int64) (*graph.Graph, dynamic.Schedule) { return graph.Star(n), nil }},
	{"path", func(n int, _ int64) (*graph.Graph, dynamic.Schedule) { return graph.Path(n), nil }},
	{"complete", func(n int, _ int64) (*graph.Graph, dynamic.Schedule) { return graph.Complete(n), nil }},
	{"hypercube", func(n int, _ int64) (*graph.Graph, dynamic.Schedule) { return graph.Hypercube(1 + n%4), nil }},
	{"torus", func(n int, _ int64) (*graph.Graph, dynamic.Schedule) { return graph.Torus(1+n%3, 1+n/3%5), nil }},
	{"debruijn", func(n int, _ int64) (*graph.Graph, dynamic.Schedule) { return graph.DeBruijn(2+n%2, 1+n%3), nil }},
	{"random", func(n int, seed int64) (*graph.Graph, dynamic.Schedule) {
		return graph.RandomStronglyConnected(n, n/2, rand.New(rand.NewSource(seed))), nil
	}},
	{"randomsym", func(n int, seed int64) (*graph.Graph, dynamic.Schedule) {
		return graph.RandomSymmetricConnected(n, n/2, rand.New(rand.NewSource(seed))), nil
	}},
	{"geometric", func(n int, seed int64) (*graph.Graph, dynamic.Schedule) {
		return graph.RandomGeometric(n, 0.35, rand.New(rand.NewSource(seed))), nil
	}},
	{"splitring", func(n int, _ int64) (*graph.Graph, dynamic.Schedule) { return nil, &dynamic.SplitRing{Vertices: n} }},
	{"randomdyn", func(n int, seed int64) (*graph.Graph, dynamic.Schedule) {
		return nil, &dynamic.RandomConnected{Vertices: n, ExtraEdges: 2, Seed: seed}
	}},
	{"pairwise", func(n int, seed int64) (*graph.Graph, dynamic.Schedule) {
		return nil, &dynamic.Pairwise{Vertices: n, Seed: seed}
	}},
}

// floodKinds are the models gossip runs under.
var floodKinds = []model.Kind{model.SimpleBroadcast, model.OutdegreeAware, model.OutputPortAware, model.Symmetric}

// floodValues is the alphabet a fuzzed input byte picks from: repeats are
// certain, with both signed zeros, fractions and negatives among them.
var floodValues = []float64{0, math.Copysign(0, -1), 1, 2, 0.5, -1.25, 3.75, 1e-9, -7, 42, 0.1, 0.7, 2.3, 1.9, -0.3, 100}

// floodSetFuncs are the set-based catalog functions gossip computes.
var floodSetFuncs = []funcs.Func{funcs.Min(), funcs.Max(), funcs.SupportSize(), funcs.Range()}

// FuzzFloodMatchesSequential runs one gossip execution on the flooding
// kernel and on engine.New and requires equal outputs before round 1 and
// after every round (rendered with %v, as the goldens hash them), equal
// MessagesDelivered, equal Corrupt counts, and equal errors. The inputs
// vary the size, the family (every static builder and the three dynamic
// schedules), the model, f, the seed, async starts, the input values, the
// round budget, and the round after which both runs are corrupted.
func FuzzFloodMatchesSequential(f *testing.F) {
	f.Add(uint8(7), uint8(0), uint8(0), uint8(1), uint8(6), uint8(0), false, int64(23), []byte{0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, n, builder, kind, fn, rounds, corruptAt uint8, starts bool, seed int64, vals []byte) {
		size := 2 + int(n)%23
		fam := floodBuilders[int(builder)%len(floodBuilders)]
		k := floodKinds[int(kind)%len(floodKinds)]
		g, sched := fam.mk(size, seed)
		if g != nil {
			if k == model.OutputPortAware {
				g = g.AssignPorts()
			}
			sched = dynamic.NewStatic(g)
		}
		size = sched.N()
		if len(vals) == 0 {
			vals = []byte{0}
		}
		inputs := make([]model.Input, size)
		for i := range inputs {
			inputs[i] = model.Input{Value: floodValues[int(vals[i%len(vals)])%len(floodValues)]}
		}
		factory, err := gossip.NewFactory(floodSetFuncs[int(fn)%len(floodSetFuncs)])
		if err != nil {
			t.Fatal(err)
		}
		cfg := engine.Config{Schedule: sched, Kind: k, Inputs: inputs, Factory: factory, Seed: seed}
		if starts {
			cfg.Starts = make([]int, size)
			rng := rand.New(rand.NewSource(seed))
			for i := range cfg.Starts {
				cfg.Starts[i] = 1 + rng.Intn(4)
			}
		}
		seq, seqErr := engine.New(cfg)
		fl, flErr := engine.NewFlood(cfg)
		if seqErr != nil || flErr != nil {
			if fmt.Sprint(seqErr) != fmt.Sprint(flErr) {
				t.Fatalf("construction: sequential %v, flood %v", seqErr, flErr)
			}
			return
		}
		assertSameRun(t, seq, fl, 1+int(rounds)%16, int(corruptAt)%17, seed)
	})
}

// assertSameRun steps want and got in lockstep for rounds rounds,
// corrupting both after round corruptAt (none when 0), and fails on the
// first difference in outputs, message counts, corruption counts or
// errors.
func assertSameRun(t *testing.T, want, got engine.Runner, rounds, corruptAt int, junk int64) {
	t.Helper()
	if w, g := fmt.Sprint(want.Outputs()), fmt.Sprint(got.Outputs()); w != g {
		t.Fatalf("round 0: flood outputs %s, sequential %s", g, w)
	}
	for r := 1; r <= rounds; r++ {
		wErr, gErr := want.Step(), got.Step()
		if fmt.Sprint(wErr) != fmt.Sprint(gErr) {
			t.Fatalf("round %d: flood error %v, sequential %v", r, gErr, wErr)
		}
		if wErr != nil {
			return
		}
		if r == corruptAt {
			if w, g := want.Corrupt(junk), got.Corrupt(junk); w != g {
				t.Fatalf("round %d: flood corrupted %d agents, sequential %d", r, g, w)
			}
		}
		if w, g := fmt.Sprint(want.Outputs()), fmt.Sprint(got.Outputs()); w != g {
			t.Fatalf("round %d: flood outputs %s, sequential %s", r, g, w)
		}
		if w, g := want.Stats(), got.Stats(); w != g {
			t.Fatalf("round %d: flood stats %+v, sequential %+v", r, g, w)
		}
	}
}

// TestFloodRunnerSelection: NewRunner builds the flooding kernel for
// "seq", its aliases, the retired sharded engine's names, and the
// fallback of "vec", when the agents are set agents that conform to the
// model and the run has no fault injector; a fault injector, a
// non-conforming model, a non-set algorithm and an agent that embeds a
// gossip agent keep the sequential engine.
func TestFloodRunnerSelection(t *testing.T) {
	gossipMax, err := gossip.NewFactory(funcs.Max())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(1, faults.Plan{Drop: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// inboxAgent embeds a gossip agent, so it inherits SetOutput and
	// CorruptValue, and overrides Send and Receive.
	var wrapped *inboxAgent
	wrap := func(in model.Input) model.Agent {
		wrapped = &inboxAgent{Agent: gossipMax(in).(*gossip.Agent)}
		return wrapped
	}
	cfg := func(k model.Kind, f model.Factory, inj engine.FaultInjector) engine.Config {
		return engine.Config{Schedule: dynamic.NewStatic(graph.BidirectionalRing(5)), Kind: k,
			Inputs: caseInputs(5), Factory: f, Seed: 3, Faults: inj}
	}
	for _, tc := range []struct {
		name, engine string
		cfg          engine.Config
		typ          string
	}{
		{"seq", "seq", cfg(model.SimpleBroadcast, gossipMax, nil), "*engine.Flood"},
		{"empty", "", cfg(model.OutdegreeAware, gossipMax, nil), "*engine.Flood"},
		{"sequential", "sequential", cfg(model.Symmetric, gossipMax, nil), "*engine.Flood"},
		{"vec fallback", "vec", cfg(model.SimpleBroadcast, gossipMax, nil), "*engine.Flood"},
		{"faults", "seq", cfg(model.SimpleBroadcast, gossipMax, inj), "*engine.Engine"},
		{"shard", "shard", cfg(model.SimpleBroadcast, gossipMax, nil), "*engine.Flood"},
		{"sharded", "sharded", cfg(model.OutdegreeAware, gossipMax, nil), "*engine.Flood"},
		{"conc", "conc", cfg(model.SimpleBroadcast, gossipMax, nil), "*engine.Flood"},
		{"concurrent", "concurrent", cfg(model.Symmetric, gossipMax, nil), "*engine.Flood"},
		{"shard faults", "shard", cfg(model.SimpleBroadcast, gossipMax, inj), "*engine.Engine"},
		{"conc linear agents", "conc", cfg(model.OutdegreeAware, pushsum.NewAverageFactory(), nil), "*engine.Engine"},
		{"linear agents", "seq", cfg(model.OutdegreeAware, pushsum.NewAverageFactory(), nil), "*engine.Engine"},
		{"embedding wrapper", "seq", cfg(model.SimpleBroadcast, wrap, nil), "*engine.Engine"},
	} {
		r, err := engine.NewRunner(tc.cfg, tc.engine, 2)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fmt.Sprintf("%T", r); got != tc.typ {
			t.Errorf("%s: NewRunner(%q) built %s, want %s", tc.name, tc.engine, got, tc.typ)
		}
		r.Close()
	}
	// The wrapper's overrides run: its last agent received a round.
	r, err := engine.NewRunner(cfg(model.SimpleBroadcast, wrap, nil), "seq", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Step(); err != nil {
		t.Fatal(err)
	}
	if len(wrapped.got) == 0 || wrapped.sent == nil {
		t.Fatalf("the embedding wrapper's Send and Receive did not run: sent %v, received %v", wrapped.sent, wrapped.got)
	}
	r.Close()
	// gossip is no BitSender: the one-bit model keeps the sequential
	// engine's conformance error.
	bit := cfg(model.OneBitBroadcast, gossipMax, nil)
	_, want := engine.New(bit)
	_, got := engine.NewRunner(bit, "seq", 0)
	if want == nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("one-bit gossip: NewRunner error %v, want %v", got, want)
	}
	if _, err := engine.NewFlood(bit); !errors.Is(err, engine.ErrNotFloodable) {
		t.Fatalf("NewFlood on one-bit gossip: %v, want ErrNotFloodable", err)
	}
}

// floodRing is an n-agent directed ring of gossip max agents whose
// inputs cycle through distinct values, so every set grows by one value a
// round until it holds all of them.
func floodRing(t testing.TB, n, distinct int) *engine.Flood {
	t.Helper()
	factory, err := gossip.NewFactory(funcs.Max())
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]model.Input, n)
	for i := range inputs {
		inputs[i] = model.Input{Value: float64(i % distinct)}
	}
	f, err := engine.NewFlood(engine.Config{Schedule: dynamic.NewStatic(graph.Ring(n)),
		Kind: model.SimpleBroadcast, Inputs: inputs, Factory: factory, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFloodArenaBound: between rounds the kernel's two arenas never hold
// more than twice the floats of the sets they store, on a ring whose sets
// grow every round and through a Corrupt that grows every set at once.
func TestFloodArenaBound(t *testing.T) {
	const n, distinct = 1000, 40
	f := floodRing(t, n, distinct)
	check := func(when string) {
		t.Helper()
		held, stored := f.ArenaFloats()
		if held > 2*stored {
			t.Fatalf("%s: the arenas hold %d floats for %d stored, more than twice", when, held, stored)
		}
	}
	check("before round 1")
	for r := 1; r <= distinct+2; r++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after round %d", r))
		if r == distinct/2 {
			f.Corrupt(5)
			check("after Corrupt")
		}
	}
	if _, stored := f.ArenaFloats(); stored <= n*distinct {
		t.Fatalf("the arenas store %d floats, want more than every agent's %d values: the junk floods too", stored, distinct)
	}
}

// TestFloodHubRoundPeak: on a star whose centre is agent 0, the first
// agent the kernel writes gains n−1 values in round 1 while every other
// set grows by one. Sizing the new arena by that growth extrapolated over
// all n agents alone would reserve about n² floats (800 MB at n=10⁴). The
// round must allocate a small multiple of the floats the sets store after
// it — the arena at most twice them, the rest the buffer of the centre's
// union — and the arenas it leaves must hold at most twice them.
func TestFloodHubRoundPeak(t *testing.T) {
	const n = 10000
	factory, err := gossip.NewFactory(funcs.Max())
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]model.Input, n)
	for i := range inputs {
		inputs[i] = model.Input{Value: float64(i + 1)}
	}
	f, err := engine.NewFlood(engine.Config{Schedule: dynamic.NewStatic(graph.Star(n)),
		Kind: model.SimpleBroadcast, Inputs: inputs, Factory: factory, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := f.Step(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	held, stored := f.ArenaFloats()
	if want := n + 2*(n-1); stored != want {
		t.Fatalf("round 1 stores %d floats, want %d", stored, want)
	}
	if allocated := after.TotalAlloc - before.TotalAlloc; allocated > 16*8*uint64(stored) {
		t.Fatalf("round 1 allocated %d bytes for %d stored floats, more than 16 floats each", allocated, stored)
	}
	if held > 2*stored {
		t.Fatalf("after round 1 the arenas hold %d floats for %d stored, more than twice", held, stored)
	}
}

// TestFloodRoundWithoutGrowthAllocatesNothing: once every set holds every
// value, a round grows no set and allocates nothing.
func TestFloodRoundWithoutGrowthAllocatesNothing(t *testing.T) {
	const n, distinct = 1000, 16
	f := floodRing(t, n, distinct)
	for r := 0; r < distinct; r++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a round that grows no set allocates %v times, want 0", allocs)
	}
}

// TestFloodLifecycle: the kernel keeps the lifecycle every runner shares —
// Corrupt reaches every agent, Close is idempotent, Step after Close
// fails, and Corrupt after Close is a no-op that reports 0.
func TestFloodLifecycle(t *testing.T) {
	f := floodRing(t, 5, 5)
	if err := f.Step(); err != nil {
		t.Fatal(err)
	}
	if got := f.Corrupt(5); got != 5 {
		t.Fatalf("Corrupt reported %d agents, want 5", got)
	}
	f.Close()
	f.Close()
	if err := f.Step(); err == nil {
		t.Fatal("Step after Close should fail")
	}
	if got := f.Corrupt(5); got != 0 {
		t.Fatalf("Corrupt after Close reported %d", got)
	}
}
