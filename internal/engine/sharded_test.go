package engine_test

// Property tests for the A2 contract: sequential ≡ sharded (≡ vectorized
// where the algorithm vectorizes), for every algorithm package and for
// shard counts that do and do not divide n. These live in an external test
// package so they can drive the engines through the real algorithm
// factories (core imports engine, so the internal test package cannot).

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"anonnet/internal/algorithms/freqcalc"
	"anonnet/internal/algorithms/gossip"
	"anonnet/internal/algorithms/metropolis"
	"anonnet/internal/algorithms/minbase"
	"anonnet/internal/algorithms/pushsum"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// algoCase is one (algorithm, model, network) workload for the equality
// property.
type algoCase struct {
	name     string
	kind     model.Kind
	factory  func(t *testing.T) model.Factory
	schedule func(n int, seed int64) dynamic.Schedule
	rounds   int
}

func algoCases() []algoCase {
	return []algoCase{
		{
			name: "gossip",
			kind: model.SimpleBroadcast,
			factory: func(t *testing.T) model.Factory {
				f, err := gossip.NewFactory(funcs.Max())
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			schedule: func(n int, seed int64) dynamic.Schedule {
				return dynamic.NewStatic(graph.RandomStronglyConnected(n, n, rand.New(rand.NewSource(seed))))
			},
			rounds: 12,
		},
		{
			name: "minbase",
			kind: model.OutdegreeAware,
			factory: func(t *testing.T) model.Factory {
				f, err := minbase.NewFactory(model.OutdegreeAware)
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			schedule: func(n int, seed int64) dynamic.Schedule {
				return dynamic.NewStatic(graph.RandomStronglyConnected(n, n/2, rand.New(rand.NewSource(seed))))
			},
			rounds: 10,
		},
		{
			name: "freqcalc",
			kind: model.OutdegreeAware,
			factory: func(t *testing.T) model.Factory {
				f, err := freqcalc.NewFactory(model.OutdegreeAware, funcs.Average(), freqcalc.None)
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			schedule: func(n int, seed int64) dynamic.Schedule {
				return dynamic.NewStatic(graph.Ring(n))
			},
			rounds: 3, // minbase+solve rounds are expensive; 3 covers the refinement
		},
		{
			name: "pushsum",
			kind: model.OutdegreeAware,
			factory: func(t *testing.T) model.Factory {
				return pushsum.NewAverageFactory()
			},
			schedule: func(n int, seed int64) dynamic.Schedule {
				return &dynamic.SplitRing{Vertices: n} // dynamic: CSR rebuilt every round
			},
			rounds: 12,
		},
		{
			name: "metropolis",
			kind: model.Symmetric,
			factory: func(t *testing.T) model.Factory {
				f, err := metropolis.NewFactory(metropolis.MaxDegree, 16)
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			schedule: func(n int, seed int64) dynamic.Schedule {
				return &dynamic.RandomConnected{Vertices: n, ExtraEdges: 1, Seed: seed}
			},
			rounds: 12,
		},
	}
}

func caseInputs(n int) []model.Input {
	pattern := []float64{3, 1, 4, 1, 5}
	out := make([]model.Input, n)
	for i := range out {
		out[i] = model.Input{Value: pattern[i%len(pattern)]}
	}
	return out
}

// TestThreeEngineTraceEquality steps three engines in lockstep on every
// algorithm and asserts the output vectors agree after every round: the
// sequential reference, the sharded engine, and whatever NewRunner builds
// for "vec" with 3 workers — the parallel vectorized kernel for the
// linear mass-passing algorithms, the sequential fallback for the rest.
func TestThreeEngineTraceEquality(t *testing.T) {
	const n = 7
	for _, tc := range algoCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engine.Config{
				Schedule: tc.schedule(n, 11),
				Kind:     tc.kind,
				Inputs:   caseInputs(n),
				Factory:  tc.factory(t),
				Seed:     23,
			}
			seq, err := engine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg2 := cfg
			cfg2.Factory = tc.factory(t)
			shd, err := engine.NewSharded(cfg2, 3) // 3 does not divide 7
			if err != nil {
				t.Fatal(err)
			}
			defer shd.Close()
			cfg3 := cfg
			cfg3.Factory = tc.factory(t)
			vec, err := engine.NewRunner(cfg3, "vec", 3)
			if err != nil {
				t.Fatal(err)
			}
			defer vec.Close()
			for r := 1; r <= tc.rounds; r++ {
				for _, e := range []engine.Runner{seq, shd, vec} {
					if err := e.Step(); err != nil {
						t.Fatalf("round %d: %v", r, err)
					}
				}
				so, ho, vo := seq.Outputs(), shd.Outputs(), vec.Outputs()
				for i := range so {
					if !reflect.DeepEqual(so[i], ho[i]) {
						t.Fatalf("round %d agent %d: sequential %v ≠ sharded %v", r, i, so[i], ho[i])
					}
					if !reflect.DeepEqual(so[i], vo[i]) {
						t.Fatalf("round %d agent %d: sequential %v ≠ %T %v", r, i, so[i], vec, vo[i])
					}
				}
			}
			if seq.Stats() != shd.Stats() {
				t.Fatalf("stats diverge: sequential %+v, sharded %+v", seq.Stats(), shd.Stats())
			}
		})
	}
}

// TestShardCountInvariance asserts the sharded engine's trace does not
// depend on the shard count — 1, 2, GOMAXPROCS, and the non-dividing n+1
// all reproduce the sequential trace.
func TestShardCountInvariance(t *testing.T) {
	const n = 9
	shardCounts := []int{1, 2, runtime.GOMAXPROCS(0), n + 1}
	for _, tc := range algoCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engine.Config{
				Schedule: tc.schedule(n, 5),
				Kind:     tc.kind,
				Inputs:   caseInputs(n),
				Factory:  tc.factory(t),
				Seed:     41,
			}
			seq, err := engine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := engine.RunRounds(seq, tc.rounds)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range shardCounts {
				c := cfg
				c.Factory = tc.factory(t)
				shd, err := engine.NewSharded(c, shards)
				if err != nil {
					t.Fatal(err)
				}
				got, err := engine.RunRounds(shd, tc.rounds)
				shd.Close()
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("%s: trace with %d shards diverges from sequential", tc.name, shards)
				}
			}
		})
	}
}

// TestShardedAsyncStarts checks the activity mask under asynchronous
// starts: sleeping agents neither send nor receive, exactly as in the
// sequential engine.
func TestShardedAsyncStarts(t *testing.T) {
	const n = 6
	starts := []int{1, 3, 1, 5, 2, 1}
	f, err := gossip.NewFactory(funcs.Min())
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{
		Schedule: dynamic.NewStatic(graph.BidirectionalRing(n)),
		Kind:     model.SimpleBroadcast,
		Inputs:   caseInputs(n),
		Factory:  f,
		Seed:     7,
		Starts:   starts,
	}
	seq, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.RunRounds(seq, 10)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Factory = f
	shd, err := engine.NewSharded(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer shd.Close()
	got, err := engine.RunRounds(shd, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("async-start traces diverge between sequential and sharded")
	}
}

// TestShardedPortModel covers the output-port-aware delivery slots through
// the CSR layout.
func TestShardedPortModel(t *testing.T) {
	const n = 8
	f, err := minbase.NewFactory(model.OutputPortAware)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{
		Schedule: dynamic.NewStatic(graph.Ring(n).AssignPorts()),
		Kind:     model.OutputPortAware,
		Inputs:   caseInputs(n),
		Factory:  f,
		Seed:     3,
	}
	seq, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.RunRounds(seq, 8)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	shd, err := engine.NewSharded(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer shd.Close()
	got, err := engine.RunRounds(shd, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("port-model traces diverge between sequential and sharded")
	}
}

// TestShardedLifecycle pins the sharded engine's shard-count defaults: 0
// selects GOMAXPROCS, capped at n. The shared Close/Step/Corrupt
// lifecycle is TestRunnerLifecycle's.
func TestShardedLifecycle(t *testing.T) {
	f, err := gossip.NewFactory(funcs.Max())
	if err != nil {
		t.Fatal(err)
	}
	shd, err := engine.NewSharded(engine.Config{
		Schedule: dynamic.NewStatic(graph.Ring(3)),
		Kind:     model.SimpleBroadcast,
		Inputs:   caseInputs(3),
		Factory:  f,
	}, 0) // 0 → GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	defer shd.Close()
	if want := min(runtime.GOMAXPROCS(0), 3); shd.Shards() != want {
		t.Fatalf("Shards() = %d, want %d", shd.Shards(), want)
	}
}

// TestShardedRejectsShapeShift mirrors the sequential engine's schedule
// validation on a per-round graph change.
func TestShardedRejectsShapeShift(t *testing.T) {
	f, err := gossip.NewFactory(funcs.Max())
	if err != nil {
		t.Fatal(err)
	}
	bad := &dynamic.Func{Vertices: 3, Fn: func(tt int) *graph.Graph {
		if tt < 3 {
			return graph.Complete(3)
		}
		return graph.Complete(4)
	}}
	shd, err := engine.NewSharded(engine.Config{
		Schedule: bad,
		Kind:     model.SimpleBroadcast,
		Inputs:   caseInputs(3),
		Factory:  f,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer shd.Close()
	for r := 0; r < 2; r++ {
		if err := shd.Step(); err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
	}
	if err := shd.Step(); err == nil {
		t.Fatal("sharded engine accepted a schedule that changed vertex count")
	}
}

func ExampleNewSharded() {
	f, _ := gossip.NewFactory(funcs.Max())
	shd, _ := engine.NewSharded(engine.Config{
		Schedule: dynamic.NewStatic(graph.Ring(4)),
		Kind:     model.SimpleBroadcast,
		Inputs:   caseInputs(4),
		Factory:  f,
	}, 2)
	defer shd.Close()
	res, _ := engine.RunUntilStable(shd, 5, 100)
	fmt.Println(res.Stable, res.Outputs[0])
	// Output: true 4
}
