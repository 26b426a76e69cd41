package engine_test

// Property tests for the fourth runner: the vectorized kernel must be
// trace-identical — byte for byte — to the sequential engine on every
// vectorizable workload, across seeds, models, asynchronous starts, and
// fault plans; it must refuse (never silently mis-run) workloads outside
// the model.VectorAgent contract; and its steady-state round loop must not
// allocate.

import (
	"errors"
	"reflect"
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

// vecCase is one vectorizable (algorithm, model, network) workload.
type vecCase struct {
	name     string
	kind     model.Kind
	factory  func(t *testing.T, n int) model.Factory
	schedule func(n int, seed int64) dynamic.Schedule
	inputs   func(n int) []model.Input // nil: caseInputs
	rounds   int
}

func vecCases() []vecCase {
	splitRing := func(n int, seed int64) dynamic.Schedule {
		return &dynamic.SplitRing{Vertices: n}
	}
	randConn := func(n int, seed int64) dynamic.Schedule {
		return &dynamic.RandomConnected{Vertices: n, ExtraEdges: 1, Seed: seed}
	}
	staticRing := func(n int, seed int64) dynamic.Schedule {
		return dynamic.NewStatic(graph.BidirectionalRing(n))
	}
	freqFactory := func(cfg pushsum.FrequencyConfig) func(t *testing.T, n int) model.Factory {
		return func(t *testing.T, n int) model.Factory {
			if cfg.KnownN != 0 {
				cfg.KnownN = n
			}
			f, err := pushsum.NewFrequencyFactory(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	metroFreqFactory := func(cfg metropolis.FreqConfig) func(t *testing.T, n int) model.Factory {
		return func(t *testing.T, n int) model.Factory {
			if cfg.KnownN != 0 {
				cfg.KnownN = n
			}
			f, err := metropolis.NewFreqFactory(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	leaderInputs := func(n int) []model.Input {
		in := caseInputs(n)
		in[0].Leader = true
		return in
	}
	return []vecCase{
		{
			name: "pushsum-average/od-dynamic",
			kind: model.OutdegreeAware,
			factory: func(t *testing.T, n int) model.Factory {
				return pushsum.NewAverageFactory()
			},
			schedule: splitRing,
			rounds:   12,
		},
		{
			name: "pushsum-average/od-static",
			kind: model.OutdegreeAware,
			factory: func(t *testing.T, n int) model.Factory {
				return pushsum.NewAverageFactory()
			},
			schedule: staticRing,
			rounds:   12,
		},
		{
			name:     "pushsum-freq-approx/od",
			kind:     model.OutdegreeAware,
			factory:  freqFactory(pushsum.FrequencyConfig{F: funcs.Average(), Mode: pushsum.Approximate}),
			schedule: splitRing,
			rounds:   10,
		},
		{
			name:     "pushsum-freq-bound/od",
			kind:     model.OutdegreeAware,
			factory:  freqFactory(pushsum.FrequencyConfig{F: funcs.Average(), Mode: pushsum.RoundToBound, BoundN: 16}),
			schedule: splitRing,
			rounds:   10,
		},
		{
			name:     "pushsum-freq-exact/od",
			kind:     model.OutdegreeAware,
			factory:  freqFactory(pushsum.FrequencyConfig{F: funcs.Sum(), Mode: pushsum.ExactSize, KnownN: -1}),
			schedule: splitRing,
			rounds:   10,
		},
		{
			name:     "pushsum-freq-leader/od",
			kind:     model.OutdegreeAware,
			factory:  freqFactory(pushsum.FrequencyConfig{F: funcs.Sum(), Mode: pushsum.LeaderCount, Leaders: 1}),
			schedule: splitRing,
			inputs:   leaderInputs,
			rounds:   10,
		},
		{
			name: "metropolis-maxdeg/sym",
			kind: model.Symmetric,
			factory: func(t *testing.T, n int) model.Factory {
				f, err := metropolis.NewFactory(metropolis.MaxDegree, 16)
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			schedule: randConn,
			rounds:   12,
		},
		{
			name: "metropolis-maxdeg/bc",
			kind: model.SimpleBroadcast,
			factory: func(t *testing.T, n int) model.Factory {
				f, err := metropolis.NewFactory(metropolis.MaxDegree, 16)
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			schedule: staticRing,
			rounds:   12,
		},
		{
			name:     "metropolis-freq-bound/sym",
			kind:     model.Symmetric,
			factory:  metroFreqFactory(metropolis.FreqConfig{F: funcs.Average(), Variant: metropolis.MaxDegree, BoundN: 16, Mode: metropolis.FreqRoundToBound}),
			schedule: randConn,
			rounds:   10,
		},
		{
			name:     "metropolis-freq-exact/sym",
			kind:     model.Symmetric,
			factory:  metroFreqFactory(metropolis.FreqConfig{F: funcs.Sum(), Variant: metropolis.MaxDegree, BoundN: 16, Mode: metropolis.FreqExactSize, KnownN: -1}),
			schedule: randConn,
			rounds:   10,
		},
	}
}

func (tc vecCase) config(t *testing.T, n int, seed int64, inj engine.FaultInjector, starts []int) engine.Config {
	inputs := caseInputs(n)
	if tc.inputs != nil {
		inputs = tc.inputs(n)
	}
	return engine.Config{
		Schedule: tc.schedule(n, seed),
		Kind:     tc.kind,
		Inputs:   inputs,
		Factory:  tc.factory(t, n),
		Seed:     seed,
		Starts:   starts,
		Faults:   inj,
	}
}

// stepPair steps seq and vec in lockstep and asserts byte-identical outputs
// after every round, then equal cumulative stats.
func stepPair(t *testing.T, seq *engine.Engine, vec *engine.Vectorized, rounds int) {
	t.Helper()
	for r := 1; r <= rounds; r++ {
		if err := seq.Step(); err != nil {
			t.Fatalf("sequential round %d: %v", r, err)
		}
		if err := vec.Step(); err != nil {
			t.Fatalf("vectorized round %d: %v", r, err)
		}
		so, vo := seq.Outputs(), vec.Outputs()
		for i := range so {
			if !reflect.DeepEqual(so[i], vo[i]) {
				t.Fatalf("round %d agent %d: sequential %v ≠ vectorized %v", r, i, so[i], vo[i])
			}
		}
	}
	if seq.Stats() != vec.Stats() {
		t.Fatalf("stats diverge: sequential %+v, vectorized %+v", seq.Stats(), vec.Stats())
	}
}

// TestVectorizedTraceEquality is the tentpole property: on every
// vectorizable workload and for several seeds, the vectorized kernel and
// the sequential engine produce byte-identical output traces and equal
// statistics.
func TestVectorizedTraceEquality(t *testing.T) {
	const n = 7
	for _, tc := range vecCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{11, 23, 37} {
				cfg := tc.config(t, n, seed, nil, nil)
				seq, err := engine.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg2 := tc.config(t, n, seed, nil, nil)
				vec, err := engine.NewVectorized(cfg2)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				stepPair(t, seq, vec, tc.rounds)
				vec.Close()
			}
		})
	}
}

// TestVectorizedFaultTraceEquality repeats the property under a non-zero
// fault plan exercising every channel the injector offers: drop,
// duplication, delay (the vector pending store), stall, and crash-restart
// (re-initialization through the vector contract).
func TestVectorizedFaultTraceEquality(t *testing.T) {
	const n = 7
	inj := faultPlanInjector(t)
	for _, tc := range vecCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.config(t, n, 23, inj, nil)
			seq, err := engine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			vec, err := engine.NewVectorized(tc.config(t, n, 23, inj, nil))
			if err != nil {
				t.Fatal(err)
			}
			defer vec.Close()
			stepPair(t, seq, vec, tc.rounds)
			fs := seq.Stats().Faults
			if fs.Dropped == 0 && fs.Duplicated == 0 && fs.Delayed == 0 {
				t.Fatalf("plan with non-zero rates injected nothing over %d rounds: %+v", tc.rounds, fs)
			}
		})
	}
}

// TestVectorizedAsyncStarts checks the activity mask under asynchronous
// starts: sleeping agents neither send nor receive, and late joiners enter
// the per-value instances exactly as on the generic path.
func TestVectorizedAsyncStarts(t *testing.T) {
	const n = 7
	starts := []int{1, 3, 1, 5, 2, 1, 4}
	for _, tc := range vecCases() {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := engine.New(tc.config(t, n, 23, nil, starts))
			if err != nil {
				t.Fatal(err)
			}
			vec, err := engine.NewVectorized(tc.config(t, n, 23, nil, starts))
			if err != nil {
				t.Fatal(err)
			}
			defer vec.Close()
			stepPair(t, seq, vec, tc.rounds)
		})
	}
}

// TestVectorizedNotVectorizable: gossip, minbase, and freqcalc agents do
// not implement the vector contract, the degree-aware Metropolis variants
// decline it, and the port model is excluded; NewVectorized must report
// ErrNotVectorizable for all of them — the deterministic signal the job
// runner's fallback keys on — and CanVectorize must never mis-select.
func TestVectorizedNotVectorizable(t *testing.T) {
	const n = 6
	mustFactory := func(f model.Factory, err error) model.Factory {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	ring := func() dynamic.Schedule { return dynamic.NewStatic(graph.BidirectionalRing(n)) }
	cases := []struct {
		name     string
		kind     model.Kind
		factory  model.Factory
		schedule dynamic.Schedule
	}{
		{"gossip", model.SimpleBroadcast, mustFactory(gossip.NewFactory(funcs.Max())), ring()},
		{"minbase", model.OutdegreeAware, mustFactory(minbase.NewFactory(model.OutdegreeAware)), ring()},
		{"freqcalc", model.OutdegreeAware, mustFactory(freqcalc.NewFactory(model.OutdegreeAware, funcs.Average(), freqcalc.None)), ring()},
		{"metropolis-standard", model.OutdegreeAware, mustFactory(metropolis.NewFactory(metropolis.Standard, 0)), ring()},
		{"metropolis-lazy", model.OutdegreeAware, mustFactory(metropolis.NewFactory(metropolis.Lazy, 0)), ring()},
		{"minbase-ports", model.OutputPortAware, mustFactory(minbase.NewFactory(model.OutputPortAware)), dynamic.NewStatic(graph.Ring(n).AssignPorts())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engine.Config{
				Schedule: tc.schedule,
				Kind:     tc.kind,
				Inputs:   caseInputs(n),
				Factory:  tc.factory,
				Seed:     1,
			}
			if engine.CanVectorize(cfg) {
				t.Fatal("CanVectorize mis-selected a non-vectorizable workload")
			}
			_, err := engine.NewVectorized(cfg)
			if !errors.Is(err, engine.ErrNotVectorizable) {
				t.Fatalf("NewVectorized err = %v, want ErrNotVectorizable", err)
			}
		})
	}
}

// TestCanVectorizeSelects confirms the detector's positive side on every
// vectorizable workload.
func TestCanVectorizeSelects(t *testing.T) {
	const n = 7
	for _, tc := range vecCases() {
		if !engine.CanVectorize(tc.config(t, n, 5, nil, nil)) {
			t.Errorf("%s: CanVectorize = false, want true", tc.name)
		}
	}
}

// TestVectorizedZeroAlloc is the perf contract: after warm-up, a fault-free
// vectorized round on a static schedule performs zero heap allocations.
func TestVectorizedZeroAlloc(t *testing.T) {
	const n = 64
	vec, err := engine.NewVectorized(engine.Config{
		Schedule: dynamic.NewStatic(graph.BidirectionalRing(n)),
		Kind:     model.OutdegreeAware,
		Inputs:   caseInputs(n),
		Factory:  pushsum.NewAverageFactory(),
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer vec.Close()
	for r := 0; r < 3; r++ { // warm-up: CSR build, scratch growth
		if err := vec.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := vec.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state vectorized round allocates %v times, want 0", allocs)
	}
}

// TestVectorizedLifecycle pins the vectorized kernel's construction: the
// message width comes from the agents. The shared Close/Step/Corrupt
// lifecycle is TestRunnerLifecycle's.
func TestVectorizedLifecycle(t *testing.T) {
	vec, err := engine.NewVectorized(engine.Config{
		Schedule: dynamic.NewStatic(graph.BidirectionalRing(4)),
		Kind:     model.OutdegreeAware,
		Inputs:   caseInputs(4),
		Factory:  pushsum.NewAverageFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer vec.Close()
	if vec.Width() != 2 {
		t.Fatalf("Width() = %d, want 2", vec.Width())
	}
}

// TestVectorizedStableRun drives the vectorized engine through the harness
// to a stable Push-Sum answer, confirming Runner integration end to end.
func TestVectorizedStableRun(t *testing.T) {
	const n = 8
	vec, err := engine.NewVectorized(engine.Config{
		Schedule: dynamic.NewStatic(graph.BidirectionalRing(n)),
		Kind:     model.OutdegreeAware,
		Inputs:   caseInputs(n),
		Factory:  pushsum.NewAverageFactory(),
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer vec.Close()
	res, err := engine.RunUntilStable(vec, 5, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Fatal("vectorized Push-Sum did not stabilize")
	}
}
