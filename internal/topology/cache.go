package topology

import (
	"container/list"
	"sync"

	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// Cache is a process-wide, size-bounded, refcounted cache of immutable
// validated Snapshots keyed by the canonical graph fingerprint
// (job.Compile derives it from builder + dims + seed-when-seeded + model
// kind; job.Compiled.Build acquires the entry). It is the sweep fast
// path's core: N jobs on the same static network acquire one shared CSR
// build instead of paying N counting-sort builds. A miss builds the
// snapshot from the network's arcs (BuildSnapshot) and makes no graph;
// an entry keeps the snapshot alone, and a run takes that snapshot as its
// network (NewStaticProvider).
//
// Concurrency contract: Acquire is safe for concurrent use and guarantees
// a single build per key — concurrent misses on the same key coalesce onto
// one builder through a per-key ready latch, the losers blocking until the
// winner's build lands (or fails, in which case every waiter gets the
// builder's error and the key is forgotten).
//
// Eviction is by memory footprint, not entry count: entries whose refcount
// has dropped to zero sit on an LRU list and are discarded oldest-first
// once the resident bytes (Snapshot.Bytes of every ready entry: the arrays
// the cache actually holds) exceed the budget. Entries still referenced
// by running jobs are pinned — they are never evicted, even if that holds
// the cache over budget (the bound throttles retention, it must not
// corrupt a run that already holds the snapshot). A queued job holds no
// entry: a run acquires its entry when it starts and releases it when it
// returns.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	entries  map[string]*Entry
	idle     *list.List // Entries with refs == 0, front = most recently released
	resident int64      // bytes of all ready entries, pinned included

	hits      int64
	misses    int64
	coalesced int64
	evictions int64
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	// Hits counts Acquire calls served a ready entry; Misses counts the
	// calls that had to build (Misses == snapshot builds performed).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// InflightCoalesced counts Acquire calls that attached to a build
	// already in flight instead of starting their own — the single-build
	// guarantee's work saved under concurrent misses.
	InflightCoalesced int64 `json:"inflight_coalesced"`
	// Evictions counts idle entries discarded to keep ResidentBytes under
	// the budget.
	Evictions int64 `json:"evictions"`
	// ResidentBytes is the Snapshot.Bytes sum of all ready entries;
	// Entries counts them. Pinned is the subset still referenced by jobs.
	ResidentBytes int64 `json:"resident_bytes"`
	Entries       int   `json:"entries"`
	Pinned        int   `json:"pinned"`
}

// Entry is one cached snapshot. Holders treat it as immutable and call
// Release exactly once, when the run that acquired the entry returns.
type Entry struct {
	// Snap is the validated destination-major CSR of the static network.
	Snap *Snapshot

	cache *Cache
	key   string
	ready chan struct{}
	err   error
	bytes int64
	refs  int
	elem  *list.Element // non-nil exactly while refs == 0 and resident
}

// DefaultCacheBytes is the budget NewCache applies when given 0.
const DefaultCacheBytes = 256 << 20

// NewCache returns a cache bounded to maxBytes of resident snapshots
// (0 means DefaultCacheBytes). The bound is enforced against idle entries
// only; entries pinned by running jobs always stay resident.
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &Cache{
		maxBytes: maxBytes,
		entries:  make(map[string]*Entry),
		idle:     list.New(),
	}
}

// Acquire returns the entry for key, building it with build on a miss.
// The returned entry is pinned until Release. Concurrent Acquires of the
// same missing key run build exactly once; the others wait for it. A
// failed build is not cached — every waiter receives the error and the
// next Acquire retries.
func (c *Cache) Acquire(key string, build func() (*Snapshot, error)) (*Entry, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		e.refs++
		if e.elem != nil {
			c.idle.Remove(e.elem)
			e.elem = nil
		}
		select {
		case <-e.ready:
			c.hits++
		default:
			c.coalesced++
		}
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			err := e.err
			c.mu.Lock()
			e.refs--
			c.mu.Unlock()
			return nil, err
		}
		return e, nil
	}
	e := &Entry{cache: c, key: key, ready: make(chan struct{}), refs: 1}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	snap, err := build()
	c.mu.Lock()
	if err != nil {
		e.err = err
		// Forget the failed key so a later Acquire can retry; waiters
		// already holding e see err through the latch.
		delete(c.entries, key)
	} else {
		e.Snap = snap
		e.bytes = snap.Bytes()
		c.resident += e.bytes
		c.evictLocked()
	}
	close(e.ready)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Release unpins the entry. When the last reference drops, the entry joins
// the idle LRU list and becomes evictable. Callers must not touch Snap
// after Release (the arrays may be discarded at any time).
func (e *Entry) Release() {
	if e == nil {
		return
	}
	c := e.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	e.refs--
	if e.refs > 0 {
		return
	}
	if e.err != nil || c.entries[e.key] != e {
		// Failed build, or already superseded/evicted: nothing resident.
		return
	}
	e.elem = c.idle.PushFront(e)
	c.evictLocked()
}

// evictLocked discards idle entries oldest-first until the resident bytes
// fit the budget. Pinned entries are untouchable, so a cache full of
// running jobs may sit over budget until they finish. Callers hold c.mu.
func (c *Cache) evictLocked() {
	for c.resident > c.maxBytes {
		back := c.idle.Back()
		if back == nil {
			return
		}
		e := back.Value.(*Entry)
		c.idle.Remove(back)
		e.elem = nil
		delete(c.entries, e.key)
		c.resident -= e.bytes
		c.evictions++
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:              c.hits,
		Misses:            c.misses,
		InflightCoalesced: c.coalesced,
		Evictions:         c.evictions,
		ResidentBytes:     c.resident,
		Entries:           len(c.entries),
		Pinned:            len(c.entries) - c.idle.Len(),
	}
}

// Bytes estimates the snapshot's memory footprint: the five flat int32
// arrays plus whatever scratch is still attached (shared snapshots built
// by BuildSnapshot carry none).
func (s *Snapshot) Bytes() int64 {
	ints := len(s.Start) + len(s.Src) + len(s.Slot) + len(s.Port) + len(s.Outdeg) +
		len(s.srcStart) + len(s.bykey) + len(s.fill)
	return int64(ints) * 4
}

// BuildSnapshot flattens the static network on n vertices given by arcs
// (edge i is arcs[i], self-loops and ports included) into a fresh,
// immutable, scratch-free Snapshot suitable for sharing across runs, and
// checks the §2.1 invariants of kind on it — the validator a Provider runs
// on every round graph. It is the build a Cache performs on a miss; no
// graph takes part. Every arc must lie in [0, n).
func BuildSnapshot(n int, arcs []graph.Edge, kind model.Kind) (*Snapshot, error) {
	desc, err := model.Lookup(kind)
	if err != nil {
		return nil, err
	}
	s := new(Snapshot)
	s.build(n, arcs, desc)
	if err := s.validate(desc, 1); err != nil {
		return nil, err
	}
	// A shared snapshot is never rebuilt in place, so the counting-sort
	// scratch would be dead weight for its whole cache lifetime.
	s.srcStart, s.bykey, s.fill = nil, nil, nil
	return s, nil
}
