package engine_test

// Snapshot-caching property tests: a static schedule must cost exactly one
// CSR build over an entire run on every engine, a static network given as
// its snapshot costs none, a dynamic schedule pays one build per round,
// and asynchronous starts over a static base stop rebuilding once the
// last agent has started (the AsyncStart.At shortcut).

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"anonnet/internal/algorithms/pushsum"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/graph"
	"anonnet/internal/model"
	"anonnet/internal/topology"
)

// topoStatser is the promoted accessor every runner inherits from the core.
type topoStatser interface {
	engine.Runner
	TopologyStats() topology.BuildStats
}

// buildsAfter steps r for the given rounds and returns how many topology
// snapshots were built along the way.
func buildsAfter(t *testing.T, r engine.Runner, rounds int) int64 {
	t.Helper()
	ts, ok := r.(topoStatser)
	if !ok {
		t.Fatalf("%T does not expose TopologyStats", r)
	}
	t.Cleanup(r.Close)
	for i := 0; i < rounds; i++ {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return ts.TopologyStats().Builds
}

// engineNames are the NewRunner names the caching tests sweep; "conc", the
// retired concurrent runner's name, selects the sharded engine.
var engineNames = []string{"seq", "conc", "shard", "vec"}

// TestStaticSnapshotBuiltOnce: a 100-round run over a static graph builds
// the CSR exactly once on every engine — the pointer-identity cache in
// topology.Provider must hit on every later round.
func TestStaticSnapshotBuiltOnce(t *testing.T) {
	const n, rounds = 8, 100
	for _, name := range engineNames {
		t.Run(name, func(t *testing.T) {
			cfg := engine.Config{
				Schedule: dynamic.NewStatic(graph.Ring(n)),
				Kind:     model.OutdegreeAware,
				Inputs:   caseInputs(n),
				Factory:  pushsum.NewAverageFactory(),
				Seed:     23,
			}
			r, err := engine.NewRunner(cfg, name, 3)
			if err != nil {
				t.Fatal(err)
			}
			if got := buildsAfter(t, r, rounds); got != 1 {
				t.Fatalf("static %d-round run built %d snapshots, want exactly 1", rounds, got)
			}
		})
	}
}

// TestDynamicSnapshotRebuiltPerRound: a schedule handing out a fresh graph
// pointer every round defeats the cache by design — one build per round.
func TestDynamicSnapshotRebuiltPerRound(t *testing.T) {
	const n, rounds = 8, 20
	cfg := engine.Config{
		Schedule: &dynamic.Func{Vertices: n, Fn: func(int) *graph.Graph { return graph.Ring(n) }},
		Kind:     model.OutdegreeAware,
		Inputs:   caseInputs(n),
		Factory:  pushsum.NewAverageFactory(),
		Seed:     23,
	}
	r, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := buildsAfter(t, r, rounds); got != rounds {
		t.Fatalf("dynamic %d-round run built %d snapshots, want one per round", rounds, got)
	}
}

// TestAsyncStartSnapshotBuilds: with asynchronous starts over a static
// base, rounds before maxStart produce fresh filtered graphs (one build
// each) and every round from maxStart on reuses the stable base graph
// (one more build, then cache hits) — maxStart builds in total.
func TestAsyncStartSnapshotBuilds(t *testing.T) {
	const n, rounds = 8, 100
	starts := []int{1, 4, 2, 1, 1, 3, 1, 1} // maxStart = 4
	const maxStart = 4
	cfg := engine.Config{
		Schedule: dynamic.NewStatic(graph.Ring(n)),
		Kind:     model.OutdegreeAware,
		Inputs:   caseInputs(n),
		Factory:  pushsum.NewAverageFactory(),
		Seed:     23,
		Starts:   starts,
	}
	r, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := buildsAfter(t, r, rounds); got != maxStart {
		t.Fatalf("async-start %d-round run built %d snapshots, want %d (one per pre-start round, then one stable)", rounds, got, maxStart)
	}
}

// TestTopologyStatsBuildTime: builds report nonzero aggregate build time
// via the same promoted accessor benchreport consumes.
func TestTopologyStatsBuildTime(t *testing.T) {
	const n = 64
	cfg := engine.Config{
		Schedule: &dynamic.Func{Vertices: n, Fn: func(int) *graph.Graph { return graph.Ring(n) }},
		Kind:     model.OutdegreeAware,
		Inputs:   caseInputs(n),
		Factory:  pushsum.NewAverageFactory(),
		Seed:     23,
	}
	r, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if buildsAfter(t, r, 10) == 0 {
		t.Fatal("expected builds")
	}
	stats := r.TopologyStats()
	if stats.BuildNanos <= 0 {
		t.Fatalf("BuildNanos = %d, want > 0 after %d builds", stats.BuildNanos, stats.Builds)
	}
}

// TestSharedSnapshotZeroBuildsIdenticalTrace is the engine half of the
// sweep fast path: a runner given a static network as its prebuilt
// snapshot (Config.Snapshot, no Schedule) must perform ZERO topology
// builds over a run — on every engine — and its output trace must be
// byte-identical to a runner over the same graph's schedule, which builds
// its own snapshot. Network as schedule or as snapshot is invisible to
// the computation.
func TestSharedSnapshotZeroBuildsIdenticalTrace(t *testing.T) {
	const n, rounds = 48, 60
	g := graph.BidirectionalRing(n).AssignPorts().EnsureSelfLoops()
	shared, err := topology.BuildSnapshot(g.N(), g.Arcs(), model.OutdegreeAware)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range append(engineNames, "parvec") {
		t.Run(name, func(t *testing.T) {
			mk := func(withShared bool) engine.Runner {
				cfg := engine.Config{
					Kind:    model.OutdegreeAware,
					Inputs:  caseInputs(n),
					Factory: pushsum.NewAverageFactory(),
					Seed:    23,
				}
				if withShared {
					cfg.Snapshot = shared
				} else {
					cfg.Schedule = dynamic.NewStatic(g)
				}
				ename, shards := name, 3
				switch name {
				case "vec":
					shards = 0 // single-threaded kernel
				case "parvec":
					ename = "vec"
				}
				r, err := engine.NewRunner(cfg, ename, shards)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			plain := mk(false)
			want := traceHashOver(t, plain, rounds)
			plain.Close()
			fast := mk(true)
			defer fast.Close()
			h := traceHashOver(t, fast, rounds)
			if h != want {
				t.Fatalf("shared-snapshot trace diverged:\n  shared %s\n  plain  %s", h, want)
			}
			if got := fast.(topoStatser).TopologyStats().Builds; got != 0 {
				t.Fatalf("shared-snapshot run built %d snapshots, want 0", got)
			}
		})
	}
}

// traceHashOver hashes the full output history of rounds steps, closing
// nothing (callers own the runner).
func traceHashOver(t *testing.T, r engine.Runner, rounds int) string {
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

// Example-style sanity check that NewRunner rejects unknown names with a
// diagnosable error (the one engine-selection point for the repo).
func TestNewRunnerUnknownEngine(t *testing.T) {
	cfg := engine.Config{
		Schedule: dynamic.NewStatic(graph.Ring(4)),
		Kind:     model.OutdegreeAware,
		Inputs:   caseInputs(4),
		Factory:  pushsum.NewAverageFactory(),
	}
	if _, err := engine.NewRunner(cfg, "turbo", 0); err == nil {
		t.Fatal("want error for unknown engine name")
	} else if want := fmt.Sprintf("engine: unknown engine %q (want %s)", "turbo", engine.NamesList()); err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}
