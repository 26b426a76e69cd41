package engine_test

// Golden-trace regression tests: the committed hashes below were recorded
// from the engines as of PR 4, before the topology/core refactor, and pin
// the repo's signature property — all engines produce byte-identical
// round-by-round traces, and refactors must reproduce them bit for bit.
// Every case hashes the full history of output vectors (one line per
// round, rendered with %v so float formatting is part of the contract)
// across the five algorithm families, async starts, and nonzero fault
// plans, and asserts that the sequential, sharded, and (where the
// workload is vectorizable) both vectorized engines all match the
// recorded constant. A failure here means observable behaviour changed relative to
// the pre-refactor engines — never "update the constant" without
// understanding why.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"anonnet/internal/engine"
	"anonnet/internal/faults"
)

// goldenCase extends the shared algoCases with optional async starts, a
// fault plan, and its own input pattern and round budget, pinning one
// recorded trace hash.
type goldenCase struct {
	name   string
	algo   string // key into algoCases
	starts []int
	plan   *faults.Plan
	values []float64 // input pattern, cycled; nil means caseInputs
	rounds int       // round budget; 0 means the algo case's
	hash   string
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{name: "gossip", algo: "gossip",
			hash: "43c6f7461e74af0ce180b52c301125922a878668fa609ee3a905f2e2fdcf7e3f"},
		{name: "minbase", algo: "minbase",
			hash: "4b0b42e902c21ff1941dee97505cfb42d592dc6fa1393cff73fcc4926bc0496c"},
		{name: "freqcalc", algo: "freqcalc",
			hash: "ad1cadb51b26cf44025db3b6299c50cd1311e2d3ab5cacbff40f202e579190f6"},
		{name: "pushsum", algo: "pushsum",
			hash: "c791460d892915359fff1476136f977f94e5f8120f55a93a8eb469d28ab20487"},
		{name: "metropolis", algo: "metropolis",
			hash: "cd1d9289d98ae966635355304d7fe8a78917bfd71b3c98324eea524419da3823"},
		{name: "pushsum/async+faults", algo: "pushsum",
			starts: []int{1, 3, 1, 2, 1, 4, 1},
			plan:   &faults.Plan{Drop: 0.15, Dup: 0.1, DelayP: 0.2, DelayMax: 3, Stall: 0.1, Crash: 0.05},
			hash:   "f72aa23ed05140602ec19ab7299d5b11eee4102e9887c9a7a2a2dd17c58b82f4"},
		{name: "metropolis/churn", algo: "metropolis",
			plan: &faults.Plan{Drop: 0.1, Churn: &faults.ChurnPlan{Drop: 0.3, Window: 2, Guard: faults.GuardRepair}},
			hash: "d32f4a2f22b1bf0000c0da48cbf0db0b9594bef972a2dc990619fd23946b62ef"},
		{name: "gossip/drop+stall", algo: "gossip",
			plan: &faults.Plan{Drop: 0.25, Stall: 0.15},
			hash: "e71ffdf0d69219cc609392b4029ab72ae7d024ccaaa0ac7931c4bcaecb7d1260"},
		// Fractional inputs, whose float sums depend on the order their
		// terms are added in: every agent outputs the average from round 7,
		// and all of them must report the same bits every round.
		{name: "freqcalc/fractional", algo: "freqcalc",
			values: []float64{0.1, 0.7, 2.3, 1.9, 0.3, 3.7, 1.3}, rounds: 10,
			hash: "4fd7fc05e25ad25987d232a56cd26fd5b2fe7523dd3bd7a6176d4f1a52fd2ae2"},
	}
}

// goldenConfig builds the engine.Config of a golden case, compiling the
// fault plan exactly as the facade does (injector + churn-wrapped
// schedule) under the shared seed.
func goldenConfig(t *testing.T, gc goldenCase) engine.Config {
	t.Helper()
	const n, seed = 7, 23
	var tc algoCase
	found := false
	for _, c := range algoCases() {
		if c.name == gc.algo {
			tc, found = c, true
			break
		}
	}
	if !found {
		t.Fatalf("unknown algo case %q", gc.algo)
	}
	cfg := engine.Config{
		Schedule: tc.schedule(n, 11),
		Kind:     tc.kind,
		Inputs:   caseInputs(n),
		Factory:  tc.factory(t),
		Seed:     seed,
		Starts:   gc.starts,
	}
	if gc.values != nil {
		for i := range cfg.Inputs {
			cfg.Inputs[i].Value = gc.values[i%len(gc.values)]
		}
	}
	if gc.plan != nil {
		inj, err := faults.NewInjector(seed, *gc.plan)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = inj
		sched, err := faults.WrapSchedule(cfg.Schedule, seed, gc.plan.Churn)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Schedule = sched
	}
	return cfg
}

// goldenRounds returns the round budget of a golden case.
func goldenRounds(t *testing.T, gc goldenCase) int {
	t.Helper()
	if gc.rounds > 0 {
		return gc.rounds
	}
	for _, c := range algoCases() {
		if c.name == gc.algo {
			return c.rounds
		}
	}
	t.Fatalf("unknown algo case %q", gc.algo)
	return 0
}

// traceHash runs r for the given number of rounds and hashes the full
// output history.
func traceHash(t *testing.T, r engine.Runner, rounds int) string {
	t.Helper()
	h := sha256.New()
	for round := 1; round <= rounds; round++ {
		if err := r.Step(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		fmt.Fprintf(h, "%d:%v\n", round, r.Outputs())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenTraceLargeN pins the parallel kernel's trace contract at
// scale: at n=10⁵ on a bidirectional ring, the sequential engine, the
// single-threaded kernel, and the parallel kernel (at a worker count that
// does not divide n) must all reproduce the recorded hash. The constant
// was recorded from the sequential engine; the large n makes the
// destination-count-dependent RNG rejection paths (and hence the parallel
// draw-splitting pass) statistically certain to be exercised.
func TestGoldenTraceLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n golden trace skipped in -short mode")
	}
	const (
		n      = 100_000
		rounds = 3
		golden = "436faf84cecab7275eec20258c7fc75ee989892fb32770181934b377c220222a"
	)
	runners := []struct {
		name string
		mk   func() (engine.Runner, error)
	}{
		{"seq", func() (engine.Runner, error) { return engine.New(pushsumConfig(n, 23)) }},
		{"vec", func() (engine.Runner, error) { return engine.NewVectorized(pushsumConfig(n, 23)) }},
		{"parvec7", func() (engine.Runner, error) { return engine.NewParallelVec(pushsumConfig(n, 23), 7) }},
	}
	for _, rn := range runners {
		r, err := rn.mk()
		if err != nil {
			t.Fatalf("%s: %v", rn.name, err)
		}
		got := traceHash(t, r, rounds)
		r.Close()
		if got != golden {
			t.Errorf("%s: trace hash %s, want golden %s", rn.name, got, golden)
		}
	}
}

func TestGoldenTraces(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			rounds := goldenRounds(t, gc)
			runners := []struct {
				name string
				mk   func() (engine.Runner, error)
			}{
				{"seq", func() (engine.Runner, error) { return engine.New(goldenConfig(t, gc)) }},
				{"shard3", func() (engine.Runner, error) { return engine.NewSharded(goldenConfig(t, gc), 3) }},
				{"vec", func() (engine.Runner, error) {
					r, err := engine.NewVectorized(goldenConfig(t, gc))
					if errors.Is(err, engine.ErrNotVectorizable) {
						return nil, err // skipped below
					}
					return r, err
				}},
				{"parvec3", func() (engine.Runner, error) {
					r, err := engine.NewParallelVec(goldenConfig(t, gc), 3)
					if errors.Is(err, engine.ErrNotVectorizable) {
						return nil, err // skipped below
					}
					return r, err
				}},
			}
			for _, rn := range runners {
				r, err := rn.mk()
				if errors.Is(err, engine.ErrNotVectorizable) {
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", rn.name, err)
				}
				got := traceHash(t, r, rounds)
				r.Close()
				if got != gc.hash {
					t.Errorf("%s: trace hash %s, want golden %s", rn.name, got, gc.hash)
				}
			}
		})
	}
}
