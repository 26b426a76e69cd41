package job

// Graph-fingerprint semantics and the cache-aware build path: the
// fingerprint must be exactly as coarse as snapshot sharing is safe —
// seed-insensitive for deterministic builders, seed-sensitive for seeded
// ones, kind-sensitive always, absent for dynamic schedules and for
// starts and churn, which rewrite the round graph — and Build must build
// one snapshot per fingerprint whatever the build concurrency, with
// results identical to the uncached path.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"anonnet/internal/faults"
	"anonnet/internal/topology"
)

func fpOf(t *testing.T, s Spec) string {
	t.Helper()
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	return c.Fingerprint
}

func TestGraphFingerprintSemantics(t *testing.T) {
	ring := Spec{Graph: GraphSpec{Builder: "ring", N: 16}, Kind: "od", Function: "average"}

	// Seed sweeps on a deterministic builder share one graph → one
	// fingerprint. That is the many-seeds-one-graph sweep the cache exists
	// for.
	a, b := ring, ring
	a.Seed, b.Seed = 1, 2
	if fpOf(t, a) == "" || fpOf(t, a) != fpOf(t, b) {
		t.Fatalf("ring seed sweep fingerprints differ: %q vs %q", fpOf(t, a), fpOf(t, b))
	}
	// Values and engine choice never touch the graph.
	v := ring
	v.Values = []float64{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}
	v.Engine, v.SchemaVersion = "vec", 5
	if fpOf(t, v) != fpOf(t, ring) {
		t.Fatal("values/engine changed the graph fingerprint")
	}

	// A seeded builder's graph depends on the seed.
	ra, rb := Spec{Graph: GraphSpec{Builder: "random", N: 32}, Kind: "od", Function: "average"}, Spec{Graph: GraphSpec{Builder: "random", N: 32}, Kind: "od", Function: "average"}
	ra.Seed, rb.Seed = 1, 2
	if fpOf(t, ra) == fpOf(t, rb) {
		t.Fatal("random builder fingerprints collide across seeds")
	}

	// The snapshot's slot layout and validation depend on the model kind.
	op := ring
	op.Kind = "op"
	if fpOf(t, op) == fpOf(t, ring) {
		t.Fatal("kind od and op share a fingerprint; Slot layouts differ")
	}

	// Different dimensions, different graph.
	big := ring
	big.Graph.N = 17
	if fpOf(t, big) == fpOf(t, ring) {
		t.Fatal("n=16 and n=17 share a fingerprint")
	}

	// Dynamic schedules have no shareable snapshot.
	if fp := fpOf(t, Spec{Graph: GraphSpec{Builder: "splitring", N: 8}, Kind: "bc", Function: "max"}); fp != "" {
		t.Fatalf("dynamic builder has fingerprint %q, want none", fp)
	}
	dyn := ring
	dyn.Dynamic = true
	if fp := fpOf(t, dyn); fp != "" {
		t.Fatalf("dynamic-forced spec has fingerprint %q, want none", fp)
	}

	// Async starts and churn rewrite the round graph: those jobs build
	// their own schedule and never run on a cached snapshot.
	st := ring
	st.Starts = []int{1, 2, 3, 1, 1, 2, 1, 1, 1, 1, 4, 1, 1, 1, 1, 1}
	if fp := fpOf(t, st); fp != "" {
		t.Fatalf("spec with starts has fingerprint %q, want none", fp)
	}
	ch := ring
	ch.Faults = &faults.Plan{Churn: &faults.ChurnPlan{Drop: 0.2, Guard: faults.GuardRepair}}
	if fp := fpOf(t, ch); fp != "" {
		t.Fatalf("spec with churn has fingerprint %q, want none", fp)
	}
	// Message faults act on deliveries, not on the graph.
	dr := ring
	dr.Faults = &faults.Plan{Drop: 0.3}
	if fpOf(t, dr) != fpOf(t, ring) {
		t.Fatal("a drop-only fault plan changed the graph fingerprint")
	}
}

// TestBuildSingleBuild: K racing builds of seed-distinct specs over the
// same graph fingerprint acquire exactly one snapshot build, and each
// built job, which has no schedule of its own, runs to the same result as
// an uncached one (race-checked in CI).
func TestBuildSingleBuild(t *testing.T) {
	const k = 16
	cache := topology.NewCache(0)
	var wg sync.WaitGroup
	var failures atomic.Int64
	built := make([]*Built, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := Spec{Graph: GraphSpec{Builder: "torus", Rows: 6, Cols: 8}, Kind: "od", Function: "average", Seed: int64(i), MaxRounds: 5}
			c, err := Compile(s)
			if err == nil {
				built[i], err = c.Build(cache)
			}
			if err != nil {
				t.Error(err)
				failures.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.FailNow()
	}
	st := cache.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d concurrent builds performed %d snapshot builds, want 1", k, st.Misses)
	}
	if st.Pinned != 1 {
		t.Fatalf("pinned entries = %d, want 1 shared", st.Pinned)
	}

	// A cached build's network is the snapshot alone, and cached and
	// uncached builds of the same spec agree bit-for-bit.
	for i, b := range built {
		if b.Schedule != nil {
			t.Fatalf("seed %d: cached build also built a schedule", i)
		}
		plain, err := Compile(b.Spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunCheckpointed(context.Background(), b, nil, CheckpointConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(context.Background(), plain, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Outputs) != len(want.Outputs) {
			t.Fatalf("seed %d: output lengths differ", i)
		}
		for j := range got.Outputs {
			if got.Outputs[j] != want.Outputs[j] {
				t.Fatalf("seed %d: output %d = %v cached, %v plain", i, j, got.Outputs[j], want.Outputs[j])
			}
		}
		if got.Rounds != want.Rounds || got.MaxErr != want.MaxErr {
			t.Fatalf("seed %d: cached run (rounds=%d err=%v) != plain (rounds=%d err=%v)",
				i, got.Rounds, got.MaxErr, want.Rounds, want.MaxErr)
		}
		b.Release()
	}
	if st := cache.Stats(); st.Pinned != 0 {
		t.Fatalf("after releases, pinned = %d, want 0", st.Pinned)
	}
}

// TestBuildValidationFallback: a spec whose graph fails §2.1 validation at
// snapshot build time (directed ring under the symmetric model) must
// still build — and fail at run time — exactly as without a cache.
func TestBuildValidationFallback(t *testing.T) {
	cache := topology.NewCache(0)
	s := Spec{Graph: GraphSpec{Builder: "ring", N: 8}, Kind: "sym", Function: "max", MaxRounds: 3}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Build(cache)
	if err != nil {
		t.Fatalf("cache-aware build rejected what an uncached build accepts: %v", err)
	}
	defer b.Release()
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatal("invalid-under-kind graph was cached")
	}
	if _, err := RunCheckpointed(context.Background(), b, nil, CheckpointConfig{}); err == nil {
		t.Fatal("directed ring under kind=sym ran; want the round-1 symmetry error")
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("failed validation left %d cache entries", st.Entries)
	}
}
