// Benchmark harness: one benchmark family per experiment row of DESIGN.md
// §4. Each Table benchmark runs a full execution of the algorithm realizing
// a table cell to output stabilization and reports the measured
// stabilization round alongside the wall-clock numbers; the figure
// benchmarks sweep the paper's rate claims; the ablation benchmarks compare
// the three kernel-solve variants of §4.2/§4.3 and the four engines.
package anonnet_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"anonnet"
	"anonnet/internal/algorithms/freqcalc"
	"anonnet/internal/algorithms/minbase"
	"anonnet/internal/algorithms/pushsum"
	"anonnet/internal/core"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/job"
	"anonnet/internal/model"
	"anonnet/internal/service"
)

func benchInputs(n int, row core.Row) []model.Input {
	pattern := []float64{1, 2, 2}
	out := make([]model.Input, n)
	for i := range out {
		out[i] = model.Input{Value: pattern[i%3]}
	}
	if row == core.RowLeader {
		out[0].Leader = true
	}
	return out
}

func repFunc(c funcs.Class) funcs.Func {
	switch c {
	case funcs.SetBased:
		return funcs.Max()
	case funcs.FrequencyBased:
		return funcs.Average()
	default:
		return funcs.Sum()
	}
}

// runCell runs one cell's algorithm to ε-agreement, returning rounds.
func runCell(b *testing.B, kind model.Kind, row core.Row, static bool, n int, seed int64) int {
	b.Helper()
	s := core.Setting{Kind: kind, Static: static, Row: row, BoundN: n + 2, KnownN: n, Leaders: 1}
	cell := s.Cell()
	f := repFunc(cell.Class)
	if cell.Open {
		f = funcs.Average()
	}
	factory, err := core.NewFactory(f, s)
	if err != nil {
		b.Fatal(err)
	}
	inputs := benchInputs(n, row)
	vals := make([]float64, n)
	for i, in := range inputs {
		vals[i] = in.Value
	}
	want := f.FromVector(vals)
	var schedule dynamic.Schedule
	switch {
	case static && kind == model.Symmetric:
		schedule = dynamic.NewStatic(graph.BidirectionalRing(n))
	case static && kind == model.OutputPortAware:
		schedule = dynamic.NewStatic(graph.Ring(n).AssignPorts())
	case static:
		schedule = dynamic.NewStatic(graph.Ring(n))
	case kind == model.Symmetric:
		schedule = &dynamic.RandomConnected{Vertices: n, ExtraEdges: 1, Seed: seed}
	default:
		schedule = &dynamic.SplitRing{Vertices: n}
	}
	e, err := engine.New(engine.Config{Schedule: schedule, Kind: kind, Inputs: inputs, Factory: factory, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	res, err := engine.RunUntilClose(e, want, model.Euclid, 1e-6, 20000)
	if err != nil {
		b.Fatal(err)
	}
	if !res.Converged {
		b.Fatalf("%v/%v did not converge (err %g)", kind, row, res.MaxErr)
	}
	return res.Rounds
}

// BenchmarkTable1 covers every implemented positive cell of Table 1 (T1).
func BenchmarkTable1(b *testing.B) {
	kinds := []model.Kind{model.SimpleBroadcast, model.OutdegreeAware, model.Symmetric, model.OutputPortAware}
	for _, kind := range kinds {
		for _, row := range core.Rows() {
			b.Run(fmt.Sprintf("%v/%v", kind, row), func(b *testing.B) {
				b.ReportAllocs()
				rounds := 0
				for i := 0; i < b.N; i++ {
					rounds = runCell(b, kind, row, true, 6, int64(i))
				}
				b.ReportMetric(float64(rounds), "rounds-to-1e-6")
			})
		}
	}
}

// BenchmarkTable2 covers every implemented positive cell of Table 2 (T2).
func BenchmarkTable2(b *testing.B) {
	type cellCase struct {
		kind model.Kind
		row  core.Row
	}
	cases := []cellCase{
		{model.SimpleBroadcast, core.RowNoHelp},
		{model.SimpleBroadcast, core.RowLeader},
		{model.OutdegreeAware, core.RowNoHelp},
		{model.OutdegreeAware, core.RowBound},
		{model.OutdegreeAware, core.RowSize},
		{model.OutdegreeAware, core.RowLeader},
		{model.Symmetric, core.RowBound},
		{model.Symmetric, core.RowSize},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("%v/%v", c.kind, c.row), func(b *testing.B) {
			b.ReportAllocs()
			rounds := 0
			for i := 0; i < b.N; i++ {
				rounds = runCell(b, c.kind, c.row, false, 6, int64(i))
			}
			b.ReportMetric(float64(rounds), "rounds-to-1e-6")
		})
	}
}

// BenchmarkTable1Impossibility regenerates the negative cells (T1-neg):
// the ring fibration witness and the broadcast set ceiling.
func BenchmarkTable1Impossibility(b *testing.B) {
	b.Run("ring-witness", func(b *testing.B) {
		b.ReportAllocs()
		factory, err := core.NewFactory(funcs.Average(),
			core.Setting{Kind: model.OutdegreeAware, Static: true, Row: core.RowNoHelp})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			rep, err := core.RingImpossibilityWitness(factory, model.OutdegreeAware,
				map[float64]int{1: 2, 5: 1}, 2, 3, 60, int64(i))
			if err != nil || !rep.Agree {
				b.Fatalf("witness failed: %v", err)
			}
		}
	})
	b.Run("broadcast-ceiling", func(b *testing.B) {
		b.ReportAllocs()
		factory, err := core.NewFactory(funcs.Max(),
			core.Setting{Kind: model.SimpleBroadcast, Static: true, Row: core.RowNoHelp})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			rep, err := core.BroadcastSetCeilingWitness(factory,
				map[float64]int{1: 1, 5: 1}, []int{1, 2}, []int{1, 4}, 40, int64(i))
			if err != nil || !rep.Agree {
				b.Fatalf("witness failed: %v", err)
			}
		}
	})
}

// BenchmarkPushSumConvergence is F1: rounds to ε on rings, vs n²·D·log(1/ε).
func BenchmarkPushSumConvergence(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		for _, eps := range []float64{1e-4, 1e-8} {
			b.Run(fmt.Sprintf("n=%d/eps=%.0e", n, eps), func(b *testing.B) {
				b.ReportAllocs()
				rounds := 0
				for i := 0; i < b.N; i++ {
					inputs := make([]model.Input, n)
					want := 0.0
					for j := range inputs {
						inputs[j] = model.Input{Value: float64(j)}
						want += float64(j)
					}
					want /= float64(n)
					e, err := engine.New(engine.Config{
						Schedule: dynamic.NewStatic(graph.Ring(n)),
						Kind:     model.OutdegreeAware,
						Inputs:   inputs,
						Factory:  pushsum.NewAverageFactory(),
						Seed:     int64(i),
					})
					if err != nil {
						b.Fatal(err)
					}
					res, err := engine.RunUntilClose(e, want, model.Euclid, eps, 100000)
					if err != nil || !res.Converged {
						b.Fatal("no convergence")
					}
					rounds = res.Rounds
				}
				bound := float64(n*n*(n-1)) * math.Log(1/eps)
				b.ReportMetric(float64(rounds), "rounds")
				b.ReportMetric(float64(rounds)/bound, "bound-frac")
			})
		}
	}
}

// BenchmarkMinBaseStabilization is F2: static §4.2 stabilization vs n + D.
func BenchmarkMinBaseStabilization(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("ring/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			measured := 0
			for i := 0; i < b.N; i++ {
				factory, err := freqcalc.NewFactory(model.OutdegreeAware, funcs.Average(), freqcalc.None)
				if err != nil {
					b.Fatal(err)
				}
				e, err := engine.New(engine.Config{
					Schedule: dynamic.NewStatic(graph.Ring(n)),
					Kind:     model.OutdegreeAware,
					Inputs:   benchInputs(n, core.RowNoHelp),
					Factory:  factory,
					Seed:     int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := engine.RunUntilStable(e, model.Discrete, n+3*(n-1)+4, 4*n+40)
				if err != nil || !res.Stable {
					b.Fatal("no stabilization")
				}
				measured = res.StabilizedAt
			}
			b.ReportMetric(float64(measured), "stabilized-round")
			b.ReportMetric(float64(n+(n-1)), "paper-n+D")
		})
	}
}

// BenchmarkMetropolis is F3: symmetric dynamic average consensus vs n².
func BenchmarkMetropolis(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			rounds := 0
			for i := 0; i < b.N; i++ {
				rounds = runMetropolisOnce(b, n, int64(i))
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(rounds)/float64(n*n), "rounds-per-n2")
		})
	}
}

func runMetropolisOnce(b *testing.B, n int, seed int64) int {
	b.Helper()
	factory, err := core.NewFactory(funcs.Average(),
		core.Setting{Kind: model.Symmetric, Static: false, Row: core.RowBound, BoundN: n + 2})
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]model.Input, n)
	want := 0.0
	for j := range inputs {
		inputs[j] = model.Input{Value: float64(j)}
		want += float64(j)
	}
	want /= float64(n)
	e, err := engine.New(engine.Config{
		Schedule: &dynamic.RandomConnected{Vertices: n, ExtraEdges: 1, Seed: seed},
		Kind:     model.Symmetric,
		Inputs:   inputs,
		Factory:  factory,
		Seed:     seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := engine.RunUntilClose(e, want, model.Euclid, 1e-6, 200000)
	if err != nil || !res.Converged {
		b.Fatal("no convergence")
	}
	return res.Rounds
}

// BenchmarkExactRounding is F4: exact ℚ_N stabilization vs n²·D·log N.
func BenchmarkExactRounding(b *testing.B) {
	n := 6
	for _, bound := range []int{6, 24} {
		b.Run(fmt.Sprintf("N=%d", bound), func(b *testing.B) {
			b.ReportAllocs()
			stabilized := 0
			for i := 0; i < b.N; i++ {
				factory, err := pushsum.NewFrequencyFactory(pushsum.FrequencyConfig{
					F: funcs.Average(), Mode: pushsum.RoundToBound, BoundN: bound,
				})
				if err != nil {
					b.Fatal(err)
				}
				e, err := engine.New(engine.Config{
					Schedule: dynamic.NewStatic(graph.Ring(n)),
					Kind:     model.OutdegreeAware,
					Inputs:   benchInputs(n, core.RowNoHelp),
					Factory:  factory,
					Seed:     int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := engine.RunUntilStable(e, model.Discrete, 100, 5000)
				if err != nil || !res.Stable {
					b.Fatal("no stabilization")
				}
				stabilized = res.StabilizedAt
			}
			b.ReportMetric(float64(stabilized), "stabilized-round")
		})
	}
}

// BenchmarkKernelVariants is the A1 ablation: the three §4.2/§4.3 solvers
// on the same (star-shaped) base.
func BenchmarkKernelVariants(b *testing.B) {
	base := &minbase.Base{
		Values: []float64{9, 4},
		Leader: []bool{false, false},
		Out:    []int{5, 2},
		D:      [][]int{{1, 1}, {4, 1}},
	}
	cover := &minbase.Base{
		Values: []float64{9, 4},
		Leader: []bool{false, false},
		Out:    []int{2, 2},
		D:      [][]int{{1, 1}, {1, 1}},
	}
	b.Run("outdegree-gaussian", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := freqcalc.SolveOutdegree(base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("symmetric-spanning-tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := freqcalc.SolveSymmetric(base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ports-constant", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := freqcalc.SolvePorts(cover); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngines is the A2 ablation: the facade's round engines on the
// same small workload through the public options API.
func BenchmarkEngines(b *testing.B) {
	mk := func(eng anonnet.EngineKind) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			setting := anonnet.Setting{Kind: anonnet.OutdegreeAware, Static: true, Row: anonnet.RowNoHelp}
			factory, err := anonnet.NewFactory(anonnet.Average(), setting)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				_, err := anonnet.Compute(context.Background(), anonnet.Spec{
					Factory:  factory,
					Schedule: anonnet.NewStatic(anonnet.Ring(12)),
					Inputs:   anonnet.Inputs(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
					Kind:     setting.Kind,
				}, anonnet.WithEngine(eng), anonnet.WithSeed(int64(i)), anonnet.WithMaxRounds(200))
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("sequential", mk(anonnet.Sequential))
	b.Run("sharded", mk(anonnet.Sharded))
	b.Run("vectorized", mk(anonnet.Vectorized))
}

// shardedBenchRounds is the fixed round budget of the sharded-engine
// benchmarks: long enough to amortize engine start-up, short enough that a
// full family stays in benchtime.
const shardedBenchRounds = 50

// BenchmarkEngineSharded compares the sharded and vectorized engines
// against the sequential one on Push-Sum over rings of growing size.
// Push-Sum keeps every agent busy every round, and each engine is
// constructed and warmed up outside the timer, so an op is exactly
// shardedBenchRounds steady-state rounds: the family isolates the
// per-round engine overhead — the plain agent loop (sequential) vs CSR
// shard delivery (sharded) vs the flat-buffer scatter-add of the
// vectorized kernels — and the allocs/op column records what the round
// loop allocates (zero, for vec and parvec). The committed
// BENCH_engine.json is generated from this workload by cmd/benchreport.
func BenchmarkEngineSharded(b *testing.B) {
	engines := []struct {
		name string
		mk   func(cfg engine.Config) (engine.Runner, error)
	}{
		{"seq", func(cfg engine.Config) (engine.Runner, error) { return engine.New(cfg) }},
		{"shard", func(cfg engine.Config) (engine.Runner, error) { return engine.NewSharded(cfg, 0) }},
		{"vec", func(cfg engine.Config) (engine.Runner, error) { return engine.NewVectorized(cfg) }},
		{"parvec", func(cfg engine.Config) (engine.Runner, error) { return engine.NewParallelVec(cfg, 0) }},
	}
	for _, n := range []int{16, 64, 256, 1024} {
		inputs := make([]model.Input, n)
		for j := range inputs {
			inputs[j] = model.Input{Value: float64(j % 31)}
		}
		for _, eng := range engines {
			b.Run(fmt.Sprintf("%s/n=%d", eng.name, n), func(b *testing.B) {
				b.ReportAllocs()
				r, err := eng.mk(engine.Config{
					Schedule: dynamic.NewStatic(graph.BidirectionalRing(n)),
					Kind:     model.OutdegreeAware,
					Inputs:   inputs,
					Factory:  pushsum.NewAverageFactory(),
					Seed:     1,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer r.Close()
				for t := 0; t < 3; t++ { // warm-up: grow every reusable buffer
					if err := r.Step(); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for t := 0; t < shardedBenchRounds; t++ {
						if err := r.Step(); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(shardedBenchRounds), "rounds/op")
			})
		}
	}
}

// BenchmarkVecRound measures the vectorized kernel's steady-state round
// loop alone: the engine is constructed and warmed up outside the timer,
// so every timed op is exactly one Step on reused buffers. The CI
// bench-smoke job fails when this benchmark reports a nonzero allocs/op —
// the zero-allocation claim of the vec engine, kept honest by the gate.
func BenchmarkVecRound(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("pushsum/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			inputs := make([]model.Input, n)
			for j := range inputs {
				inputs[j] = model.Input{Value: float64(j % 31)}
			}
			v, err := engine.NewVectorized(engine.Config{
				Schedule: dynamic.NewStatic(graph.BidirectionalRing(n)),
				Kind:     model.OutdegreeAware,
				Inputs:   inputs,
				Factory:  pushsum.NewAverageFactory(),
				Seed:     1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer v.Close()
			for t := 0; t < 3; t++ { // warm-up: grow every reusable buffer
				if err := v.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := v.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelVecRound measures the parallel vectorized kernel's
// steady-state round loop: construction and warm-up happen outside the
// timer, so every timed op is one Step over reused slabs and persistent
// workers. Like BenchmarkVecRound, the CI bench-smoke job fails when this
// reports a nonzero allocs/op — the parallel path must stay allocation-free
// per round (channel hand-off and barrier included). The worker sweep shows
// the coordination overhead at small n and the scaling headroom at large n;
// cmd/benchreport -scale extends the same workload to n=10⁵/10⁶ for
// BENCH_engine.json.
func BenchmarkParallelVecRound(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		for _, workers := range []int{2, 4} {
			b.Run(fmt.Sprintf("pushsum/n=%d/w=%d", n, workers), func(b *testing.B) {
				b.ReportAllocs()
				inputs := make([]model.Input, n)
				for j := range inputs {
					inputs[j] = model.Input{Value: float64(j % 31)}
				}
				v, err := engine.NewParallelVec(engine.Config{
					Schedule: dynamic.NewStatic(graph.BidirectionalRing(n)),
					Kind:     model.OutdegreeAware,
					Inputs:   inputs,
					Factory:  pushsum.NewAverageFactory(),
					Seed:     1,
				}, workers)
				if err != nil {
					b.Fatal(err)
				}
				defer v.Close()
				for t := 0; t < 3; t++ { // warm-up: grow every reusable buffer
					if err := v.Step(); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := v.Step(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFloodRound measures the flooding kernel's steady-state round
// loop alone: on an n=10⁴ ring whose inputs cycle through 25 values (a
// divisor of n, so every 25 consecutive agents hold them all), run until
// every set holds all of them, and on a complete graph whose sets are
// saturated after one round. Construction and warm-up happen outside
// the timer, so every timed op is one Step that grows no set. Like
// BenchmarkVecRound, the CI bench-smoke job fails when it reports a
// nonzero allocs/op: such a round must allocate nothing.
func BenchmarkFloodRound(b *testing.B) {
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		distinct int
	}{
		{"gossip/ring/n=10000", graph.Ring(10_000), 25},
		{"gossip/complete/n=128", graph.Complete(128), 128},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			factory, err := core.NewFactory(funcs.Max(),
				core.Setting{Kind: model.SimpleBroadcast, Static: true, Row: core.RowNoHelp})
			if err != nil {
				b.Fatal(err)
			}
			inputs := make([]model.Input, tc.g.N())
			for j := range inputs {
				inputs[j] = model.Input{Value: float64(j % tc.distinct)}
			}
			f, err := engine.NewFlood(engine.Config{
				Schedule: dynamic.NewStatic(tc.g),
				Kind:     model.SimpleBroadcast,
				Inputs:   inputs,
				Factory:  factory,
				Seed:     1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			for t := 0; t < 2*tc.distinct; t++ { // warm-up: saturate every set
				if err := f.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGossipFlooding measures the baseline algorithm's cost per round
// budget across network families.
func BenchmarkGossipFlooding(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("ring/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			factory, err := core.NewFactory(funcs.Max(),
				core.Setting{Kind: model.SimpleBroadcast, Static: true, Row: core.RowNoHelp})
			if err != nil {
				b.Fatal(err)
			}
			inputs := make([]model.Input, n)
			for j := range inputs {
				inputs[j] = model.Input{Value: float64(j % 17)}
			}
			for i := 0; i < b.N; i++ {
				e, err := engine.New(engine.Config{
					Schedule: dynamic.NewStatic(graph.Ring(n)),
					Kind:     model.SimpleBroadcast,
					Inputs:   inputs,
					Factory:  factory,
					Seed:     int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				for t := 0; t < n; t++ {
					if err := e.Step(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkServiceThroughput measures jobs/sec through the anonnetd worker
// pool: "cold" submits b.N distinct computations (unique seeds, no result
// reuse possible); "cachehit" submits one computation b.N times, so all
// but the first are served from the result index without touching the
// pool. The gap between the two is the service-layer perf baseline for
// future PRs.
func BenchmarkServiceThroughput(b *testing.B) {
	spec := func(seed int64) job.Spec {
		return job.Spec{
			Graph:    job.GraphSpec{Builder: "ring", N: 16},
			Kind:     "od",
			Function: "average",
			Seed:     seed,
		}
	}
	await := func(b *testing.B, svc *service.Service, want int64) {
		for {
			st := svc.Stats()
			if st.Completed+st.Failed+st.Canceled+st.CacheHits >= want {
				if st.Failed > 0 {
					b.Fatalf("stats: %+v", st)
				}
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		svc := service.New(service.Config{QueueDepth: b.N + 1, ProgressEvery: 1 << 30})
		defer svc.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Submit(spec(int64(i))); err != nil {
				b.Fatal(err)
			}
		}
		await(b, svc, int64(b.N))
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	})
	b.Run("cachehit", func(b *testing.B) {
		b.ReportAllocs()
		svc := service.New(service.Config{QueueDepth: b.N + 1, ProgressEvery: 1 << 30})
		defer svc.Close()
		if _, err := svc.Submit(spec(0)); err != nil {
			b.Fatal(err)
		}
		await(b, svc, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Submit(spec(0)); err != nil {
				b.Fatal(err)
			}
		}
		await(b, svc, int64(b.N)+1)
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	})
}

// sweepMember is one job of a 64-member same-graph sweep: broadcast
// gossip on a static ring, whose fingerprint is seed-independent, so the
// whole sweep shares one topology snapshot. Gossip is the cheap per-round
// algorithm of the suite, which keeps the benchmark about the submit path
// (arcs → validated CSR on a cache miss) rather than engine rounds.
func sweepMember(n int, seed int64) job.Spec {
	return job.Spec{
		Graph:     job.GraphSpec{Builder: "ring", N: n},
		Kind:      "bc",
		Function:  "max",
		Seed:      seed,
		MaxRounds: 2,
		Patience:  2,
	}
}

// BenchmarkServiceSweep measures the sweep fast path on 64-job batches
// (DESIGN §5h), in the shapes of perfbench's workloads: "cold" gives every
// member of every iteration a ring size of its own, so every member pays
// its own snapshot build from the ring's arcs (counter-asserted: 64
// builds per iteration); "warm" shares one snapshot across a 64-seed sweep and
// "dedup" submits 64 identical specs that coalesce into a single
// execution, both on one ring that every iteration reuses
// (counter-asserted: exactly one build in total). Sub-benchmark sizes
// cover n=10⁴–10⁶; CI smoke runs n=10⁴.
func BenchmarkServiceSweep(b *testing.B) {
	const members = 64
	await := func(b *testing.B, svc *service.Service, want int64) {
		for {
			st := svc.Stats()
			if st.Completed+st.Failed+st.Canceled+st.CacheHits >= want {
				if st.Failed > 0 {
					b.Fatalf("stats: %+v", st)
				}
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	run := func(b *testing.B, cfg service.Config, specFor func(iter int, j int) job.Spec, wantBuilds func(iters int) int64) {
		b.ReportAllocs()
		cfg.QueueDepth = members * (b.N + 1)
		cfg.ProgressEvery = 1 << 30
		svc := service.New(cfg)
		defer svc.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			specs := make([]job.Spec, members)
			for j := range specs {
				specs[j] = specFor(i, j)
			}
			if _, err := svc.SubmitBatch(specs); err != nil {
				b.Fatal(err)
			}
			await(b, svc, int64(members*(i+1)))
		}
		b.StopTimer()
		if st, want := svc.Stats(), wantBuilds(b.N); st.TopoCacheMisses != want {
			b.Fatalf("sweep built %d snapshots over %d iterations, want %d", st.TopoCacheMisses, b.N, want)
		}
		b.ReportMetric(float64(members*b.N)/b.Elapsed().Seconds(), "jobs/s")
	}
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		// Distinct specs per iteration keep every job a fresh computation:
		// no iteration finds an earlier one's result in the index.
		seedSweep := func(i, j int) job.Spec { return sweepMember(n, int64(i*members+j)) }
		identical := func(i, j int) job.Spec { return sweepMember(n, int64(i)) }
		sizeSweep := func(i, j int) job.Spec { return sweepMember(n+i*members+j, 0) }
		perMember := func(iters int) int64 { return int64(members * iters) }
		once := func(int) int64 { return 1 }
		b.Run(fmt.Sprintf("cold/n=%d", n), func(b *testing.B) {
			run(b, service.Config{}, sizeSweep, perMember)
		})
		b.Run(fmt.Sprintf("warm/n=%d", n), func(b *testing.B) {
			run(b, service.Config{}, seedSweep, once)
		})
		b.Run(fmt.Sprintf("dedup/n=%d", n), func(b *testing.B) {
			run(b, service.Config{}, identical, once)
		})
	}
}
