package job

// A topology-cache miss flattens the static family's arcs straight into
// the CSR build, and a private build makes its graph from the same arcs.
// These tests hold the two paths together on every static builder and
// registered model, and gate what a miss allocates.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"anonnet/internal/model"
	"anonnet/internal/testutil"
	"anonnet/internal/topology"
)

// staticGraphs covers every static builder at its degenerate sizes plus
// one of about 10³ vertices — or, for the dense complete and geometric
// families, about 10³ to 10⁴ arcs, which keeps the race-checked run short.
func staticGraphs() []GraphSpec {
	var gs []GraphSpec
	large := map[string]int{"complete": 32, "geometric": 100}
	for _, b := range []string{"ring", "bidiring", "star", "path", "complete", "random", "randomsym", "geometric"} {
		big := 1000
		if n, ok := large[b]; ok {
			big = n
		}
		for _, n := range []int{1, 2, 3, big} {
			gs = append(gs, GraphSpec{Builder: b, N: n})
		}
	}
	for _, d := range []int{0, 1, 2, 10} {
		gs = append(gs, GraphSpec{Builder: "hypercube", D: d})
	}
	for _, kd := range [][2]int{{1, 0}, {1, 1}, {1, 3}, {2, 0}, {2, 1}, {3, 2}, {2, 10}} {
		gs = append(gs, GraphSpec{Builder: "debruijn", K: kd[0], D: kd[1]})
	}
	for _, rc := range [][2]int{{1, 1}, {2, 2}, {1, 5}, {5, 1}, {2, 3}, {32, 32}} {
		gs = append(gs, GraphSpec{Builder: "torus", Rows: rc[0], Cols: rc[1]})
	}
	return gs
}

// TestCacheMissMatchesPrivateGraph: for every static builder × registered
// model, the snapshot Build(cache) takes equals, array for array, the CSR
// computed naively from Build(nil)'s private graph. Where the model
// rejects the network (say sym on a directed ring), the miss and the
// private graph's per-round build reject it with the same error, and the
// cached build falls back to the private one.
func TestCacheMissMatchesPrivateGraph(t *testing.T) {
	covered := map[string]bool{}
	for _, gs := range staticGraphs() {
		covered[gs.Builder] = true
		for _, d := range model.Descriptors() {
			name := fmt.Sprintf("%+v/%s", gs, d.Canon)
			c, err := Compile(Spec{Graph: gs, Kind: d.Canon, Function: "max", Seed: 5})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if c.Fingerprint == "" {
				t.Fatalf("%s: a static spec has no graph fingerprint", name)
			}
			private, err := c.Build(nil)
			if err != nil {
				t.Fatalf("%s: private build: %v", name, err)
			}
			g := private.Schedule.At(1)
			_, want := topology.NewProvider(private.Schedule, d.Kind).Round(1)

			cache := topology.NewCache(0)
			cached, err := c.Build(cache)
			if err != nil {
				t.Fatalf("%s: cached build: %v", name, err)
			}
			_, got := c.snapshot()
			switch {
			case want != nil:
				if got == nil || got.Error() != want.Error() {
					t.Fatalf("%s: cache miss error %v, private graph's %v", name, got, want)
				}
				if cached.topo != nil || cached.Schedule == nil || cache.Stats().Entries != 0 {
					t.Fatalf("%s: a rejected network was cached instead of built privately", name)
				}
			case got != nil:
				t.Fatalf("%s: cache miss rejected what the private graph passes: %v", name, got)
			default:
				if cached.topo == nil || cached.Schedule != nil {
					t.Fatalf("%s: cached build did not take the snapshot", name)
				}
				testutil.CheckSnapshot(t, g, cached.topo.Snap, d.Kind, 1)
			}
			cached.Release()
		}
	}
	for b, info := range builders {
		if info.static() && !covered[b] {
			t.Errorf("static builder %q is not covered", b)
		}
	}
}

// TestCacheMissAllocs gates a topology-cache miss on an n=10⁴ bc ring:
// the family's arcs go straight into the CSR build, so the miss allocates
// at most 16 times, and at most 4× the snapshot's own bytes — the arcs,
// the port counters and the counting-sort scratch. A graph made on the
// way breaks both bounds: its per-vertex adjacency lists alone allocate
// at least twice per vertex.
func TestCacheMissAllocs(t *testing.T) {
	c, err := Compile(Spec{Graph: GraphSpec{Builder: "ring", N: 10_000}, Kind: "bc", Function: "max"})
	if err != nil {
		t.Fatal(err)
	}
	var snap *topology.Snapshot
	allocs := testing.AllocsPerRun(10, func() {
		if snap, err = c.snapshot(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("a cache miss allocates %v times, want at most 16", allocs)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := c.snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perMiss := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := 4 * uint64(snap.Bytes()); perMiss > limit {
		t.Fatalf("a cache miss allocates %d bytes, want at most %d (4× the snapshot's %d)", perMiss, limit, snap.Bytes())
	}
	t.Logf("cache miss: %v allocs, %d bytes; snapshot holds %d bytes", allocs, perMiss, snap.Bytes())
}

// TestGossipJobAllocs gates what a gossip job allocates per agent: a
// compiled n=10⁴ bc ring max job runs its two rounds on the cached
// snapshot. Per agent that is the agent itself, one boxed output per read
// (three reads: before round 1 and after each round), and per round one
// boxed send and one grown set — 8 in all. f reads the seen set in place,
// and the engine cuts its sent and inbox buffers from slabs, so nothing
// else grows with n; the run's own objects (runner, slabs, output
// vectors, result) get a fixed allowance of 64.
func TestGossipJobAllocs(t *testing.T) {
	const n, perAgent, perRun = 10_000, 8, 64
	c, err := Compile(Spec{Graph: GraphSpec{Builder: "ring", N: n}, Kind: "bc", Function: "max", MaxRounds: 2, Patience: 2})
	if err != nil {
		t.Fatal(err)
	}
	cache := topology.NewCache(0)
	run := func() {
		b, err := c.Build(cache)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Release()
		res, err := RunCheckpointed(context.Background(), b, nil, CheckpointConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != 2 {
			t.Fatalf("ran %d rounds, want 2", res.Rounds)
		}
	}
	run() // the cache miss, outside the measurement
	allocs := testing.AllocsPerRun(5, run)
	t.Logf("a 2-round n=%d gossip job allocates %v times, %.4f per agent", n, allocs, allocs/n)
	if allocs > perAgent*n+perRun {
		t.Fatalf("a 2-round n=%d gossip job allocates %v times, want at most %d per agent plus %d", n, allocs, perAgent, perRun)
	}
}
