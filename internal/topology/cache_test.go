package topology_test

// The process-wide topology cache's contracts, race-checked: exactly one
// snapshot build under K concurrent Acquires of one key, byte-footprint
// eviction that spares pinned entries, failed builds not cached, resident
// bytes that are the bytes the entries really hold, and the shared
// snapshot matching a per-run Provider build entry for entry; and a
// Provider's pooled per-round rebuilds allocating nothing.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"anonnet/internal/dynamic"
	"anonnet/internal/graph"
	"anonnet/internal/model"
	"anonnet/internal/topology"
)

func buildRing(n int) (*topology.Snapshot, error) {
	g := graph.BidirectionalRing(n).AssignPorts().EnsureSelfLoops()
	return topology.BuildSnapshot(g.N(), g.Arcs(), model.OutdegreeAware)
}

// TestCacheSingleBuildUnderConcurrency is the single-build guarantee: K
// goroutines racing Acquire on one cold key perform exactly one build,
// and K−1 of them are counted as inflight coalesces or hits.
func TestCacheSingleBuildUnderConcurrency(t *testing.T) {
	const k = 32
	c := topology.NewCache(0)
	var builds atomic.Int64
	var wg sync.WaitGroup
	entries := make([]*topology.Entry, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := c.Acquire("ring/64", func() (*topology.Snapshot, error) {
				builds.Add(1)
				return buildRing(64)
			})
			if err != nil {
				t.Error(err)
				return
			}
			entries[i] = e
		}(i)
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d concurrent Acquires performed %d builds, want exactly 1", k, got)
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.InflightCoalesced != k-1 {
		t.Fatalf("hits (%d) + coalesced (%d) = %d, want %d", st.Hits, st.InflightCoalesced, st.Hits+st.InflightCoalesced, k-1)
	}
	// Every winner got the same immutable snapshot.
	for i := 1; i < k; i++ {
		if entries[i].Snap != entries[0].Snap {
			t.Fatalf("Acquire %d returned a different snapshot than Acquire 0", i)
		}
	}
	for _, e := range entries {
		e.Release()
	}
	if st := c.Stats(); st.Pinned != 0 || st.Entries != 1 {
		t.Fatalf("after releases: pinned=%d entries=%d, want 0 and 1", st.Pinned, st.Entries)
	}
}

// TestCacheEvictionSparesPinned fills a tiny cache past its byte budget
// while one entry stays pinned (a running job holds it): the pinned entry
// must survive every eviction pass, idle ones go oldest-first.
func TestCacheEvictionSparesPinned(t *testing.T) {
	// Budget fits two n=256 ring entries — the pinned one and one idle —
	// so each further insert evicts the idle tail.
	probe, err := buildRing(256)
	if err != nil {
		t.Fatal(err)
	}
	c := topology.NewCache(2 * probe.Bytes())

	pinned, err := c.Acquire("pinned", func() (*topology.Snapshot, error) { return buildRing(256) })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		e, err := c.Acquire(fmt.Sprintf("idle/%d", i), func() (*topology.Snapshot, error) { return buildRing(256) })
		if err != nil {
			t.Fatal(err)
		}
		e.Release()
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("8 oversized inserts evicted nothing (resident %d bytes)", st.ResidentBytes)
	}
	if st.Pinned != 1 {
		t.Fatalf("pinned entries = %d, want the 1 held entry", st.Pinned)
	}
	// The pinned key must still hit, without a rebuild.
	misses := st.Misses
	again, err := c.Acquire("pinned", func() (*topology.Snapshot, error) {
		return nil, errors.New("pinned entry was evicted: build should not run")
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.Snap != pinned.Snap {
		t.Fatal("re-acquire of the pinned key returned a different snapshot")
	}
	if got := c.Stats().Misses; got != misses {
		t.Fatalf("re-acquiring the pinned key built again (misses %d → %d)", misses, got)
	}
	again.Release()
	pinned.Release()
}

// TestCacheFailedBuildNotCached: a builder error propagates to the caller
// (and any coalesced waiters) and the key stays cold, so the next Acquire
// retries.
func TestCacheFailedBuildNotCached(t *testing.T) {
	c := topology.NewCache(0)
	boom := errors.New("boom")
	if _, err := c.Acquire("k", func() (*topology.Snapshot, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Acquire error = %v, want %v", err, boom)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("failed build left %d entries resident", st.Entries)
	}
	e, err := c.Acquire("k", func() (*topology.Snapshot, error) { return buildRing(16) })
	if err != nil {
		t.Fatalf("retry after failed build: %v", err)
	}
	e.Release()
}

// TestCacheResidentBytesAreLive: the byte budget is exact. After 16
// distinct n=10⁴ broadcast-ring snapshots are acquired and released, the
// live heap grows by the cache's ResidentBytes to within 5% — an entry
// holds its snapshot's arrays and nothing else (the arcs it was built
// from are garbage once the build returns).
func TestCacheResidentBytesAreLive(t *testing.T) {
	const entries, n = 16, 10_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := topology.NewCache(0)
	for i := 0; i < entries; i++ {
		e, err := c.Acquire(fmt.Sprintf("ring/%d", i), func() (*topology.Snapshot, error) {
			return topology.BuildSnapshot(n, graph.RingArcs(n), model.SimpleBroadcast)
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Release()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := c.Stats()
	runtime.KeepAlive(c)
	if st.Entries != entries || st.Evictions != 0 {
		t.Fatalf("entries = %d, evictions = %d; want %d resident under the default budget", st.Entries, st.Evictions, entries)
	}
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if ratio := float64(st.ResidentBytes) / float64(live); ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("cache counts %d resident bytes but holds %d live (ratio %.3f), want within 5%%", st.ResidentBytes, live, ratio)
	}
}

// TestSharedSnapshotMatchesProviderBuild pins the fast path's correctness
// core: the cache's shared snapshot must be entry-for-entry identical to
// what a per-run Provider builds from the same graph, and the fixed-
// snapshot provider must serve it every round with zero builds.
func TestSharedSnapshotMatchesProviderBuild(t *testing.T) {
	for _, kind := range []model.Kind{model.SimpleBroadcast, model.OutdegreeAware, model.OutputPortAware, model.Symmetric} {
		g := graph.BidirectionalRing(48).AssignPorts().EnsureSelfLoops()
		shared, err := topology.BuildSnapshot(g.N(), g.Arcs(), kind)
		if err != nil {
			t.Fatalf("%v: BuildSnapshot: %v", kind, err)
		}
		ref := topology.NewProvider(dynamic.NewStatic(g), kind)
		want, err := ref.Round(1)
		if err != nil {
			t.Fatalf("%v: provider build: %v", kind, err)
		}
		if shared.N() != want.N() || shared.M() != want.M() {
			t.Fatalf("%v: shared snapshot is %d×%d, provider built %d×%d", kind, shared.N(), shared.M(), want.N(), want.M())
		}
		for j := 0; j <= shared.N(); j++ {
			if shared.Start[j] != want.Start[j] {
				t.Fatalf("%v: Start[%d] = %d, want %d", kind, j, shared.Start[j], want.Start[j])
			}
		}
		for e := 0; e < shared.M(); e++ {
			if shared.Src[e] != want.Src[e] || shared.Slot[e] != want.Slot[e] || shared.Port[e] != want.Port[e] {
				t.Fatalf("%v: entry %d = (%d,%d,%d), want (%d,%d,%d)", kind, e,
					shared.Src[e], shared.Slot[e], shared.Port[e], want.Src[e], want.Slot[e], want.Port[e])
			}
		}

		p := topology.NewStaticProvider(shared)
		for round := 1; round <= 50; round++ {
			snap, err := p.Round(round)
			if err != nil {
				t.Fatalf("%v: shared provider round %d: %v", kind, round, err)
			}
			if snap != shared {
				t.Fatalf("%v: round %d did not serve the shared snapshot", kind, round)
			}
		}
		if st := p.Stats(); st.Builds != 0 {
			t.Fatalf("%v: shared provider performed %d builds, want 0", kind, st.Builds)
		}
	}
}

// TestBuildSnapshotValidates: BuildSnapshot enforces the same §2.1
// invariants as the per-round path.
func TestBuildSnapshotValidates(t *testing.T) {
	g := graph.New(8) // directed cycle: no self-loops, not symmetric
	for i := 0; i < 8; i++ {
		g.AddEdge(i, (i+1)%8)
	}
	if _, err := topology.BuildSnapshot(8, g.Arcs(), model.SimpleBroadcast); err == nil {
		t.Fatal("BuildSnapshot accepted a graph without self-loops")
	}
	if _, err := topology.BuildSnapshot(8, g.EnsureSelfLoops().Arcs(), model.Symmetric); err == nil {
		t.Fatal("BuildSnapshot accepted an asymmetric graph under the symmetric model")
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestProviderRebuildsAllocateNothing: a schedule that alternates two
// round graphs makes the Provider rebuild every round; once its pool
// holds both snapshots' arrays, a rebuild — the CSR build and the §2.1
// validator, symmetry check included — allocates nothing.
func TestProviderRebuildsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const n = 64
	sched, err := dynamic.NewPeriodic(graph.BidirectionalRing(n), graph.Star(n))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []model.Kind{model.SimpleBroadcast, model.Symmetric} {
		p := topology.NewProvider(sched, kind)
		round := 0
		step := func() {
			round++
			if _, err := p.Round(round); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ { // warm-up: fill the pool
			step()
		}
		if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
			t.Fatalf("%v: a round rebuild allocates %v times, want 0", kind, allocs)
		}
		if st := p.Stats(); st.Builds != int64(round) {
			t.Fatalf("%v: %d builds over %d rounds, want one per round", kind, st.Builds, round)
		}
	}
}
