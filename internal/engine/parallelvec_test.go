package engine_test

// Property tests for the parallel vectorized runner: across every
// vectorizable workload, seed, fault plan, async-start vector, and worker
// count — including counts that do not divide the agent count, counts
// above it (capped at one agent per slab), and 1 (degenerate serial) — the
// traces must be byte-identical to the sequential engine, the steady-state
// round loop must not allocate, and checkpoints must interchange with the
// single-threaded vectorized runner in both directions.

import (
	"reflect"
	"runtime"
	"testing"

	"anonnet/internal/algorithms/pushsum"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// pvWorkerCounts is the property grid: degenerate, non-dividing, machine
// width, and workers > n (capped at n, so every slab holds one agent).
func pvWorkerCounts(n int) []int {
	return []int{1, 2, 3, runtime.GOMAXPROCS(0), n - 1, n + 1, 2 * n}
}

// stepTriple steps the sequential, vectorized, and parallel vectorized
// runners in lockstep and asserts byte-identical outputs after every
// round, then equal cumulative stats.
func stepTriple(t *testing.T, seq *engine.Engine, vec *engine.Vectorized, pv *engine.ParallelVec, rounds int) {
	t.Helper()
	for r := 1; r <= rounds; r++ {
		if err := seq.Step(); err != nil {
			t.Fatalf("sequential round %d: %v", r, err)
		}
		if err := vec.Step(); err != nil {
			t.Fatalf("vectorized round %d: %v", r, err)
		}
		if err := pv.Step(); err != nil {
			t.Fatalf("parallel vectorized round %d: %v", r, err)
		}
		so, po := seq.Outputs(), pv.Outputs()
		for i := range so {
			if !reflect.DeepEqual(so[i], po[i]) {
				t.Fatalf("round %d agent %d: sequential %v ≠ parallel vectorized %v", r, i, so[i], po[i])
			}
		}
	}
	if seq.Stats() != pv.Stats() {
		t.Fatalf("stats diverge: sequential %+v, parallel vectorized %+v", seq.Stats(), pv.Stats())
	}
	if vec.Stats() != pv.Stats() {
		t.Fatalf("stats diverge: vectorized %+v, parallel vectorized %+v", vec.Stats(), pv.Stats())
	}
}

// TestParallelVecTraceEquality is the tentpole property: on every
// vectorizable workload, for several seeds and every worker count in the
// grid, the parallel kernel reproduces the sequential engine's trace byte
// for byte.
func TestParallelVecTraceEquality(t *testing.T) {
	const n = 7
	for _, tc := range vecCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{11, 23} {
				for _, workers := range pvWorkerCounts(n) {
					seq, err := engine.New(tc.config(t, n, seed, nil, nil))
					if err != nil {
						t.Fatal(err)
					}
					vec, err := engine.NewVectorized(tc.config(t, n, seed, nil, nil))
					if err != nil {
						t.Fatal(err)
					}
					pv, err := engine.NewParallelVec(tc.config(t, n, seed, nil, nil), workers)
					if err != nil {
						t.Fatalf("seed %d workers %d: %v", seed, workers, err)
					}
					stepTriple(t, seq, vec, pv, tc.rounds)
					vec.Close()
					pv.Close()
				}
			}
		})
	}
}

// TestParallelVecFaultTraceEquality repeats the property under a non-zero
// fault plan: drop, duplication, delay (the per-worker late scratch and
// the shared pending store), stall, and crash-restart.
func TestParallelVecFaultTraceEquality(t *testing.T) {
	const n = 7
	for _, tc := range vecCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range pvWorkerCounts(n) {
				inj := faultPlanInjector(t)
				seq, err := engine.New(tc.config(t, n, 23, inj, nil))
				if err != nil {
					t.Fatal(err)
				}
				vec, err := engine.NewVectorized(tc.config(t, n, 23, inj, nil))
				if err != nil {
					t.Fatal(err)
				}
				pv, err := engine.NewParallelVec(tc.config(t, n, 23, inj, nil), workers)
				if err != nil {
					t.Fatal(err)
				}
				stepTriple(t, seq, vec, pv, tc.rounds)
				vec.Close()
				pv.Close()
			}
		})
	}
}

// TestParallelVecAsyncStarts checks the activity mask under asynchronous
// starts on the parallel path.
func TestParallelVecAsyncStarts(t *testing.T) {
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
			pv, err := engine.NewParallelVec(tc.config(t, n, 23, nil, starts), 3)
			if err != nil {
				t.Fatal(err)
			}
			defer vec.Close()
			defer pv.Close()
			stepTriple(t, seq, vec, pv, tc.rounds)
		})
	}
}

func pushsumConfig(n int, seed int64) engine.Config {
	return engine.Config{
		Schedule: dynamic.NewStatic(graph.BidirectionalRing(n)),
		Kind:     model.OutdegreeAware,
		Inputs:   caseInputs(n),
		Factory:  pushsum.NewAverageFactory(),
		Seed:     seed,
	}
}

// TestParallelVecZeroAlloc is the perf contract: after warm-up, a
// fault-free parallel vectorized round on a static schedule performs zero
// heap allocations on the engine goroutine.
func TestParallelVecZeroAlloc(t *testing.T) {
	const n = 256
	pv, err := engine.NewParallelVec(pushsumConfig(n, 9), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pv.Close()
	for r := 0; r < 3; r++ { // warm-up: CSR build, slab and swap growth
		if err := pv.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := pv.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state parallel vectorized round allocates %v times, want 0", allocs)
	}
}

// TestParallelVecCheckpointCrossResume pins the cross-engine durability
// contract: a checkpoint taken on either vector runner restores on the
// other — in both directions — and the resumed trace is byte-identical to
// the uninterrupted one. The two engines consume the shared RNG
// draw-for-draw identically, so the Draws counter carries over.
func TestParallelVecCheckpointCrossResume(t *testing.T) {
	const n, rounds, k = 9, 12, 5
	mk := map[string]func() (engine.Runner, error){
		"vec": func() (engine.Runner, error) { return engine.NewVectorized(pushsumConfig(n, 23)) },
		"parvec": func() (engine.Runner, error) {
			return engine.NewParallelVec(pushsumConfig(n, 23), 4)
		},
	}
	for _, dir := range []struct{ from, to string }{
		{"vec", "parvec"}, {"parvec", "vec"}, {"parvec", "parvec"},
	} {
		t.Run(dir.from+"-to-"+dir.to, func(t *testing.T) {
			a, err := mk[dir.from]()
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			var lines []string
			var blob []byte
			for round := 1; round <= rounds; round++ {
				if err := a.Step(); err != nil {
					t.Fatal(err)
				}
				lines = append(lines, traceLine(a))
				if round == k {
					cp, err := a.(engine.Checkpointer).Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if blob, err = cp.Encode(); err != nil {
						t.Fatal(err)
					}
				}
			}
			full := hashLines(lines)

			cp, err := engine.DecodeCheckpoint(blob)
			if err != nil {
				t.Fatal(err)
			}
			b, err := mk[dir.to]()
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if err := b.(engine.Checkpointer).Restore(cp); err != nil {
				t.Fatalf("restore %s checkpoint on %s: %v", dir.from, dir.to, err)
			}
			spliced := append([]string(nil), lines[:k]...)
			for round := k + 1; round <= rounds; round++ {
				if err := b.Step(); err != nil {
					t.Fatal(err)
				}
				spliced = append(spliced, traceLine(b))
			}
			if got := hashLines(spliced); got != full {
				t.Errorf("spliced %s→%s trace hash %s, want %s", dir.from, dir.to, got, full)
			}
		})
	}
}

// TestParallelVecLifecycle pins the parallel kernel's construction
// defaults: 0 workers selects GOMAXPROCS, capped at n, and the message
// width comes from the agents. The shared Close/Step/Corrupt lifecycle is
// TestRunnerLifecycle's.
func TestParallelVecLifecycle(t *testing.T) {
	pv, err := engine.NewParallelVec(pushsumConfig(4, 1), 0) // 0 → GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	defer pv.Close()
	if want := min(runtime.GOMAXPROCS(0), 4); pv.Workers() != want {
		t.Fatalf("Workers() = %d, want %d", pv.Workers(), want)
	}
	if pv.Width() != 2 {
		t.Fatalf("Width() = %d, want 2", pv.Width())
	}
}

// TestParallelismCappedAtN: shard and worker counts above n are capped at
// n — the extra shards or workers could only ever be empty — so asking
// for 2²⁰ workers on a 4-ring starts 4 worker goroutines, not 2²⁰, and
// both runners still reproduce the sequential trace.
func TestParallelismCappedAtN(t *testing.T) {
	const n, rounds, huge = 4, 10, 1 << 20
	seq, err := engine.New(pushsumConfig(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := traceHash(t, seq, rounds)

	before := runtime.NumGoroutine()
	pv, err := engine.NewParallelVec(pushsumConfig(n, 1), huge)
	if err != nil {
		t.Fatal(err)
	}
	defer pv.Close()
	if started := runtime.NumGoroutine() - before; started > n {
		t.Fatalf("NewParallelVec(%d workers) on %d agents started %d goroutines, want ≤ %d", huge, n, started, n)
	}
	if pv.Workers() != n {
		t.Fatalf("Workers() = %d, want %d", pv.Workers(), n)
	}
	if got := traceHash(t, pv, rounds); got != want {
		t.Errorf("parallel vectorized trace %s, want sequential %s", got, want)
	}

	shd, err := engine.NewSharded(pushsumConfig(n, 1), huge)
	if err != nil {
		t.Fatal(err)
	}
	defer shd.Close()
	if shd.Shards() != n {
		t.Fatalf("Shards() = %d, want %d", shd.Shards(), n)
	}
	if got := traceHash(t, shd, rounds); got != want {
		t.Errorf("sharded trace %s, want sequential %s", got, want)
	}
}

// TestParallelVecNotVectorizable: the parallel runner refuses exactly the
// workloads the single-threaded one refuses, with the same sentinel.
func TestParallelVecNotVectorizable(t *testing.T) {
	cfg := pushsumConfig(4, 1)
	cfg.Kind = model.OutputPortAware
	if _, err := engine.NewParallelVec(cfg, 2); err == nil {
		t.Fatal("want ErrNotVectorizable for the port model")
	}
}

// TestNewRunnerSelectsParallelVec pins the engine-selection contract:
// "vec" with a positive shard count routes to the parallel kernel, "vec"
// without one to the single-threaded kernel, and the long aliases resolve
// through the shared name table.
func TestNewRunnerSelectsParallelVec(t *testing.T) {
	r, err := engine.NewRunner(pushsumConfig(6, 2), "vec", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pv, ok := r.(*engine.ParallelVec)
	if !ok {
		t.Fatalf("NewRunner(vec, 3) = %T, want *engine.ParallelVec", r)
	}
	if pv.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", pv.Workers())
	}
	r2, err := engine.NewRunner(pushsumConfig(6, 2), "vectorized", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok := r2.(*engine.Vectorized); !ok {
		t.Fatalf("NewRunner(vectorized, 0) = %T, want *engine.Vectorized", r2)
	}
}
