package engine_test

// Property tests for the A2 contract: every runner NewRunner builds
// reproduces the sequential engine's trace, for every algorithm package,
// and the retired sharded engine's names and shard counts select the
// sequential path.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"anonnet/internal/engine"
)

// TestThreeEngineTraceEquality steps three runners in lockstep on every
// algorithm and asserts the output vectors agree after every round: the
// sequential engine as the reference, whatever NewRunner builds for "seq"
// — the flooding kernel for gossip, the sequential engine for the rest —
// and whatever it builds for "vec" with 3 workers — the parallel
// vectorized kernel for the linear mass-passing algorithms, the
// sequential path for the rest.
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
			path, err := engine.NewRunner(cfg2, "seq", 0)
			if err != nil {
				t.Fatal(err)
			}
			defer path.Close()
			cfg3 := cfg
			cfg3.Factory = tc.factory(t)
			vec, err := engine.NewRunner(cfg3, "vec", 3)
			if err != nil {
				t.Fatal(err)
			}
			defer vec.Close()
			for r := 1; r <= tc.rounds; r++ {
				for _, e := range []engine.Runner{seq, path, vec} {
					if err := e.Step(); err != nil {
						t.Fatalf("round %d: %v", r, err)
					}
				}
				so := seq.Outputs()
				for _, e := range []engine.Runner{path, vec} {
					eo := e.Outputs()
					for i := range so {
						if !reflect.DeepEqual(so[i], eo[i]) {
							t.Fatalf("round %d agent %d: sequential %v ≠ %T %v", r, i, so[i], e, eo[i])
						}
					}
				}
			}
			for _, e := range []engine.Runner{path, vec} {
				if seq.Stats() != e.Stats() {
					t.Fatalf("stats diverge: sequential %+v, %T %+v", seq.Stats(), e, e.Stats())
				}
			}
		})
	}
}

// TestShardCountInvariance: the retired sharded engine's names select the
// sequential path and ignore the shard count — "shard" and its aliases
// build the same runner type NewRunner builds for "seq", at every count,
// 0, GOMAXPROCS and the non-dividing n+1 included, and reproduce the
// sequential trace.
func TestShardCountInvariance(t *testing.T) {
	const n = 9
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
			cfg.Factory = tc.factory(t)
			path, err := engine.NewRunner(cfg, "seq", 0)
			if err != nil {
				t.Fatal(err)
			}
			path.Close()
			for _, sel := range []struct {
				name   string
				shards int
			}{{"shard", 0}, {"shard", 1}, {"sharded", 2}, {"conc", runtime.GOMAXPROCS(0)}, {"concurrent", n + 1}} {
				c := cfg
				c.Factory = tc.factory(t)
				r, err := engine.NewRunner(c, sel.name, sel.shards)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := fmt.Sprintf("%T", r), fmt.Sprintf("%T", path); got != want {
					t.Fatalf("NewRunner(%q, %d) built %s, want %s as for seq", sel.name, sel.shards, got, want)
				}
				got, err := engine.RunRounds(r, tc.rounds)
				r.Close()
				if err != nil {
					t.Fatalf("%s/%d: %v", sel.name, sel.shards, err)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("%s: trace of NewRunner(%q, %d) diverges from sequential", tc.name, sel.name, sel.shards)
				}
			}
		})
	}
}
