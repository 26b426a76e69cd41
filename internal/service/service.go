// Package service is the heart of anonnetd: a bounded job queue feeding a
// worker pool that executes validated job.Specs through the round engines,
// with per-job deadlines and cancellation, an LRU result cache keyed by
// the canonical spec hash, round-by-round progress subscriptions, and
// counters published to expvar. The service is embeddable: cmd/anonnetd
// wraps it in an HTTP API, tests drive it directly.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anonnet/internal/engine"
	"anonnet/internal/job"
	"anonnet/internal/metrics"
	"anonnet/internal/model"
	"anonnet/internal/store"
	"anonnet/internal/topology"
)

// Service errors.
var (
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("service: closed")
	// ErrQueueFull is returned by Submit when the bounded queue is at
	// capacity — the caller should retry later (HTTP 429 and 503
	// territory).
	ErrQueueFull = errors.New("service: queue full")
	// ErrNotFound is returned for unknown job IDs.
	ErrNotFound = errors.New("service: no such job")
	// ErrEmptyBatch is returned by SubmitBatch for a batch with no specs.
	ErrEmptyBatch = errors.New("service: empty batch")
	// ErrBatchTooLarge is returned by SubmitBatch for a batch over
	// MaxBatchSize specs.
	ErrBatchTooLarge = errors.New("service: batch too large")
	// ErrTransient marks an attempt failure as retryable: an attempt
	// error wrapping ErrTransient is re-executed up to MaxRetries times
	// with exponential backoff before the job is declared failed. The
	// engines never return it; Config.Intercept hooks use it to signal
	// "try again".
	ErrTransient = errors.New("service: transient error")
)

// MaxBatchSize bounds the number of specs in one SubmitBatch call — a
// batch must not be able to claim the whole default queue.
const MaxBatchSize = 64

// Config tunes a Service. The zero value selects sensible defaults.
type Config struct {
	// Workers is the pool size (default runtime.GOMAXPROCS(0)).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (default 64).
	QueueDepth int
	// CacheSize is the LRU result-cache capacity in entries (default 128;
	// negative disables caching).
	CacheSize int
	// JobTimeout is the per-job deadline (default 2m; negative disables).
	JobTimeout time.Duration
	// ProgressEvery publishes a progress event every k rounds (default 1:
	// every round).
	ProgressEvery int
	// MaxRetries bounds re-executions of a job whose attempt failed with
	// an error wrapping ErrTransient (default 2; negative disables retries).
	MaxRetries int
	// RetryBase is the backoff before the first retry, doubling on each
	// subsequent one (default 50ms).
	RetryBase time.Duration
	// Store, when non-nil, makes the service durable: every job state
	// transition is appended to the log, done results are served from disk
	// on LRU misses, running jobs checkpoint their engine state, and
	// Recover re-enqueues non-terminal jobs after a restart.
	Store *store.Store
	// CheckpointEvery snapshots a running job's engine every k rounds
	// (default 50 when Store is set; meaningless without one). Shutdown
	// flushes a final checkpoint regardless.
	CheckpointEvery int
	// JobLatency, when non-nil, observes each finished job's wall-clock
	// seconds (the /metrics latency histogram).
	JobLatency *metrics.Histogram
	// BreakerThreshold trips the store circuit breaker after this many
	// consecutive failed persists (default 5; negative disables the
	// breaker). While tripped the service runs degraded: jobs still
	// execute and results serve from memory, but log appends are dropped
	// and their jobs marked dirty for a backfill flush once a half-open
	// probe succeeds.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker waits before letting
	// one append through as a half-open probe (default 3s).
	BreakerCooldown time.Duration
	// Intercept, when non-nil, runs before every job attempt (including
	// retries) with the job ID and zero-based attempt number. A returned
	// error fails the attempt — wrapping ErrTransient makes it retryable —
	// and a panic is recovered into a failed job, never a dead worker.
	// Injection point for the chaos layer's worker failpoints and tests.
	Intercept func(ctx context.Context, jobID string, attempt int) error
	// TopoCacheBytes bounds the shared topology-snapshot cache in bytes
	// (0 selects topology.DefaultCacheBytes; negative disables cross-job
	// snapshot sharing). Jobs whose specs share a graph fingerprint —
	// same builder, dimensions, model kind, and seed when the builder is
	// seeded — compile against one refcounted immutable snapshot instead
	// of each building their own.
	TopoCacheBytes int64
	// NoDedup disables single-flight spec deduplication. By default a
	// spec submitted while an identical one (same canonical hash) is
	// queued or running joins its execution: one engine run, shared
	// result and terminal state, no duplicate queue slot.
	NoDedup bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 1
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 50
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerThreshold < 0 {
		c.BreakerThreshold = 0 // disabled
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 3 * time.Second
	}
	return c
}

// Job is a client-facing snapshot of one job.
type Job struct {
	ID       string   `json:"id"`
	Hash     string   `json:"hash"`
	Spec     job.Spec `json:"spec"`
	State    State    `json:"state"`
	Error    string   `json:"error,omitempty"`
	CacheHit bool     `json:"cache_hit,omitempty"`
	// DedupOf names the job whose execution this job joined because it
	// was submitted while an identical job was in flight.
	DedupOf string `json:"dedup_of,omitempty"`
	// Result is set when State is done.
	Result    *job.Result `json:"result,omitempty"`
	Submitted time.Time   `json:"submitted"`
	Started   *time.Time  `json:"started,omitempty"`
	Finished  *time.Time  `json:"finished,omitempty"`

	// specJSON and encoded are the encodings compile made of Spec and
	// settle made of Result, shared read-only with the service; AppendJSON
	// copies them instead of encoding the n-vectors again.
	specJSON []byte
	encoded  *encodedResult
}

// Progress is one event on a job's watch stream: a round-by-round sample
// while running, then exactly one terminal event (Done=true).
type Progress struct {
	JobID   string    `json:"job_id"`
	State   State     `json:"state"`
	Round   int       `json:"round,omitempty"`
	Outputs []job.F64 `json:"outputs,omitempty"`
	MaxErr  job.F64   `json:"max_err"`
	Done    bool      `json:"done,omitempty"`
	Error   string    `json:"error,omitempty"`

	// outputsJSON is Outputs already encoded — on a terminal event, a
	// sub-slice of the result's encoding. Nil: AppendJSON encodes Outputs.
	outputsJSON []byte
}

// Stats is a snapshot of the service counters (rendered as the expvar
// "anonnetd" map for /debug/vars).
type Stats struct {
	Submitted       int64 `json:"submitted"`
	Completed       int64 `json:"completed"`
	Failed          int64 `json:"failed"`
	Canceled        int64 `json:"canceled"`
	CacheHits       int64 `json:"cache_hits"`
	RoundsSimulated int64 `json:"rounds_simulated"`
	PanicsRecovered int64 `json:"panics_recovered"`
	Retries         int64 `json:"retries"`
	// Recovered counts jobs re-enqueued from the durable store at boot;
	// Interrupted counts running jobs flushed to checkpoints at shutdown.
	Recovered   int64 `json:"recovered"`
	Interrupted int64 `json:"interrupted"`
	// StoreErrors counts durable-store append failures (the service keeps
	// serving from memory when the disk misbehaves); SyncFailures is the
	// subset that lost only durability, not data (store.ErrSyncFailed).
	StoreErrors  int64 `json:"store_errors"`
	SyncFailures int64 `json:"sync_failures"`
	// BreakerTrips counts closed→open transitions of the store circuit
	// breaker; DegradedDropped counts appends dropped while it was open;
	// Backfilled counts dirty jobs re-persisted after recovery; Degraded
	// reports whether the breaker is open right now.
	BreakerTrips    int64 `json:"breaker_trips"`
	DegradedDropped int64 `json:"degraded_dropped"`
	Backfilled      int64 `json:"backfilled"`
	Degraded        bool  `json:"degraded"`
	// Sweep fast path: the shared topology-snapshot cache and the
	// single-flight dedup and affinity layers above it.
	TopoCacheHits      int64 `json:"topo_cache_hits"`
	TopoCacheMisses    int64 `json:"topo_cache_misses"`
	TopoCacheCoalesced int64 `json:"topo_cache_coalesced"`
	TopoCacheEvictions int64 `json:"topo_cache_evictions"`
	TopoCacheBytes     int64 `json:"topo_cache_bytes"`
	TopoCacheEntries   int   `json:"topo_cache_entries"`
	DedupCoalesced     int64 `json:"dedup_coalesced"`
	AffinityHits       int64 `json:"affinity_hits"`
	AffinityMisses     int64 `json:"affinity_misses"`
	Queued             int   `json:"queued"`
	Running            int   `json:"running"`
	CacheEntries       int   `json:"cache_entries"`
	Workers            int   `json:"workers"`
}

// Service is the concurrent simulation service.
type Service struct {
	cfg Config

	// topo is the process-wide shared topology-snapshot cache handed to
	// every compile; nil when Config.TopoCacheBytes is negative.
	topo *topology.Cache

	mu        sync.Mutex
	jobs      map[string]*entry
	order     []string
	batches   map[string][]string
	cache     *lru
	inflight  map[string]*execution // canonical hash → the identical execution in flight
	closed    bool
	shutdown  bool // graceful shutdown: queued jobs stay queued for the next boot
	nextID    int64
	nextBatch int64

	// Lifecycle counters, bumped only by transition: new entries by
	// cause, later transitions by target state.
	created map[cause]int64
	reached map[State]int64

	// Store circuit breaker (mu-guarded: persist always runs under mu).
	// After BreakerThreshold consecutive failed persists the breaker opens
	// and the service degrades to in-memory operation; after the cooldown
	// one append goes through as a half-open probe, and on probe success
	// the dirty set is backfilled into the log.
	consecFails     int
	breakerOpen     bool
	breakerOpenedAt time.Time
	dirty           map[string]bool // job IDs with un-persisted transitions

	queue chan *execution
	wg    sync.WaitGroup

	rounds       atomic.Int64
	running      atomic.Int64
	panics       atomic.Int64
	retries      atomic.Int64
	storeErrs    atomic.Int64
	syncFails    atomic.Int64
	breakerTrips atomic.Int64
	degradedDrop atomic.Int64
	backfilled   atomic.Int64
	workersAlive atomic.Int64

	affinityHits   atomic.Int64
	affinityMisses atomic.Int64
}

// The process-wide expvar "anonnetd" map renders the Stats of the most
// recently started Service (anonnetd runs one). expvar registration is
// global and must happen once.
var (
	expOnce    sync.Once
	expService atomic.Pointer[Service]
)

func publishExpvars(s *Service) {
	expService.Store(s)
	expOnce.Do(func() {
		expvar.Publish("anonnetd", expvar.Func(func() any {
			st := expService.Load().Stats()
			return map[string]int64{
				"jobs_submitted":   st.Submitted,
				"jobs_completed":   st.Completed,
				"jobs_failed":      st.Failed,
				"jobs_canceled":    st.Canceled,
				"cache_hits":       st.CacheHits,
				"rounds_simulated": st.RoundsSimulated,
				"jobs_running":     int64(st.Running),
				"panics_recovered": st.PanicsRecovered,
				"retries":          st.Retries,
				"jobs_recovered":   st.Recovered,
				"jobs_interrupted": st.Interrupted,
			}
		}))
	})
}

// New starts a Service with cfg's worker pool. Callers must Close it.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		jobs:     make(map[string]*entry),
		batches:  make(map[string][]string),
		cache:    newLRU(cfg.CacheSize),
		inflight: make(map[string]*execution),
		created:  make(map[cause]int64),
		reached:  make(map[State]int64),
		queue:    make(chan *execution, cfg.QueueDepth),
		dirty:    make(map[string]bool),
	}
	if cfg.TopoCacheBytes >= 0 {
		s.topo = topology.NewCache(cfg.TopoCacheBytes)
	}
	if cfg.Store != nil {
		// Continue the persisted ID sequence so recovered and new jobs
		// never collide.
		s.nextID = cfg.Store.MaxJobSeq()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		s.workersAlive.Add(1)
		go s.worker()
	}
	publishExpvars(s)
	return s
}

// Submit validates and enqueues spec. When an identical computation (same
// canonical hash) has a cached result, the job is born done with
// CacheHit set and no work is queued. Returns the job snapshot.
func (s *Service) Submit(spec job.Spec) (*Job, error) {
	compiled, err := job.CompileWithCache(spec, s.topo)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		compiled.ReleaseTopo()
		return nil, ErrClosed
	}
	e, err := s.submitLocked(compiled)
	if err != nil {
		return nil, err
	}
	return snapshot(e), nil
}

// submitLocked registers one compiled job: cache-served jobs are born
// done, a job identical to one already queued or running joins its
// execution, and everything else gets its own execution on the bounded
// queue (ErrQueueFull when at capacity). Callers hold s.mu.
func (s *Service) submitLocked(compiled *job.Compiled) (*entry, error) {
	e := &entry{hash: compiled.Hash, spec: compiled.Spec, specJSON: compiled.SpecJSON}
	if res, ok := s.resultForHash(e.hash); ok {
		compiled.ReleaseTopo()
		e.result = res
		e.cacheHit = true
		s.addLocked(e, nil, causeCache)
		return e, nil
	}
	if x, ok := s.inflight[e.hash]; ok {
		// Single-flight: an identical computation is already in flight —
		// join it instead of enqueueing a duplicate. The new job keeps its
		// own ID, watch stream, and cancel button; the result and terminal
		// state arrive from the one execution.
		compiled.ReleaseTopo()
		e.dedupOf = x.id
		s.addLocked(e, x, causeDedup)
		return e, nil
	}
	x := &execution{compiled: compiled}
	select {
	case s.queue <- x:
	default:
		compiled.ReleaseTopo()
		return nil, ErrQueueFull
	}
	s.addLocked(e, x, causeSubmit)
	x.id = e.id
	if !s.cfg.NoDedup {
		s.inflight[e.hash] = x
	}
	return e, nil
}

// addLocked registers a new entry — under the next job ID unless it
// already has one — as a member of x, or born done when x is nil, and
// catches it up with x's state. Callers hold s.mu.
func (s *Service) addLocked(e *entry, x *execution, c cause) {
	if e.id == "" {
		s.nextID++
		e.id = fmt.Sprintf("j%06d", s.nextID)
	}
	e.submitted = time.Now()
	e.subs = make(map[chan Progress]struct{})
	s.jobs[e.id] = e
	s.order = append(s.order, e.id)
	if x == nil {
		s.transition(e, StateDone, c)
		return
	}
	e.exec = x
	x.members = append(x.members, e)
	s.transition(e, StateQueued, c)
	if !x.started.IsZero() {
		s.transition(e, StateRunning, c)
	}
}

// dropInflightLocked removes x from the dedup index if it is still the
// registered execution for its hash. Callers hold s.mu.
func (s *Service) dropInflightLocked(x *execution) {
	if s.inflight[x.compiled.Hash] == x {
		delete(s.inflight, x.compiled.Hash)
	}
}

// resultForHash consults the two result tiers: the in-memory LRU, then
// the durable store. A disk hit keeps the log's bytes as its encoding and
// is promoted into the LRU. Callers hold s.mu.
func (s *Service) resultForHash(hash string) (*encodedResult, bool) {
	if r, ok := s.cache.get(hash); ok {
		return r, true
	}
	if s.cfg.Store == nil {
		return nil, false
	}
	raw, ok := s.cfg.Store.ResultByHash(hash)
	if !ok {
		return nil, false
	}
	var res job.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, false
	}
	r := &encodedResult{res: &res, json: raw, outputs: job.OutputsJSON(raw)}
	s.cache.add(hash, r)
	return r, true
}

// persist appends one record to the durable store. Append failures (disk
// full, store closed during shutdown races) are counted, not fatal: the
// service keeps serving from memory. Failures also feed the circuit
// breaker — once it opens, appends are dropped outright (the job is
// remembered as dirty) until a half-open probe lands, at which point the
// dirty set is backfilled. Callers hold s.mu, which is what makes the
// breaker fields plain fields.
func (s *Service) persist(rec store.Record) {
	if s.cfg.Store == nil {
		return
	}
	rec.Unix = time.Now().UnixNano()
	if s.degradedLocked() {
		s.degradedDrop.Add(1)
		s.dirty[rec.JobID] = true
		return
	}
	if err := s.cfg.Store.Append(rec); err != nil {
		if lost := s.noteStoreFailureLocked(err); lost {
			s.dirty[rec.JobID] = true
		}
		return
	}
	s.noteStoreSuccessLocked()
}

// degradedLocked reports whether the breaker is open and still inside its
// cooldown — the window in which persists are dropped rather than
// attempted. Once the cooldown elapses the next persist goes through as
// the half-open probe. Callers hold s.mu.
func (s *Service) degradedLocked() bool {
	return s.breakerOpen && time.Since(s.breakerOpenedAt) < s.cfg.BreakerCooldown
}

// noteStoreSuccessLocked records a successful append: the failure streak
// resets, a half-open probe closes the breaker, and any dirty backlog —
// from a degraded stretch or from sporadic failures that never tripped —
// is flushed. Callers hold s.mu.
func (s *Service) noteStoreSuccessLocked() {
	s.consecFails = 0
	s.breakerOpen = false
	if len(s.dirty) > 0 {
		s.backfillLocked()
	}
}

// noteStoreFailureLocked counts one failed store operation and advances
// the breaker state machine. The return value reports whether record data
// was actually lost: a store.ErrSyncFailed append reached the file and
// will replay after a crash (lost durability only), so its job does not
// need a backfill. Callers hold s.mu.
func (s *Service) noteStoreFailureLocked(err error) (lost bool) {
	s.storeErrs.Add(1)
	lost = true
	if errors.Is(err, store.ErrSyncFailed) {
		s.syncFails.Add(1)
		lost = false
	}
	s.consecFails++
	switch {
	case s.breakerOpen:
		// Failed half-open probe: stay open and restart the cooldown.
		s.breakerOpenedAt = time.Now()
	case s.cfg.BreakerThreshold > 0 && s.consecFails >= s.cfg.BreakerThreshold:
		s.breakerOpen = true
		s.breakerOpenedAt = time.Now()
		s.breakerTrips.Add(1)
	}
	return lost
}

// backfillLocked re-persists the current state of every dirty job after
// the breaker closes: one append per job carrying its spec, latest state,
// and (when terminal) result or error, so a log that went dark mid-flight
// still converges to the truth the memory view holds. A failure mid-flush
// re-opens the breaker and leaves the remainder dirty for the next probe.
// Callers hold s.mu.
func (s *Service) backfillLocked() {
	for id := range s.dirty {
		e, ok := s.jobs[id]
		if !ok {
			delete(s.dirty, id)
			continue
		}
		rec := store.Record{JobID: e.id, Hash: e.hash, State: string(e.state),
			Spec: e.specJSON, Error: e.err, Unix: time.Now().UnixNano()}
		if e.state == StateDone && e.result != nil {
			rec.Result = e.result.json
		}
		if err := s.cfg.Store.Append(rec); err != nil {
			if lost := s.noteStoreFailureLocked(err); lost {
				// The disk proved unhealthy again mid-recovery: re-open
				// immediately rather than rebuilding a failure streak while
				// more records go missing. id stays dirty for the next probe.
				if !s.breakerOpen {
					s.breakerOpen = true
					s.breakerOpenedAt = time.Now()
					s.breakerTrips.Add(1)
				}
				return
			}
			// Sync-only failure: the record is in the log, keep flushing.
		}
		delete(s.dirty, id)
		s.backfilled.Add(1)
	}
}

// Recover re-enqueues every non-terminal job found in the durable store —
// the boot step after a crash or graceful shutdown. Jobs keep their
// original IDs; those with an on-disk checkpoint resume mid-run from it.
// Specs that no longer compile are marked failed in the log rather than
// wedging recovery. Returns the number of jobs re-enqueued.
func (s *Service) Recover() (int, error) {
	if s.cfg.Store == nil {
		return 0, nil
	}
	pending := s.cfg.Store.Pending()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	n := 0
	for _, v := range pending {
		if _, exists := s.jobs[v.ID]; exists {
			continue
		}
		var spec job.Spec
		err := json.Unmarshal(v.Spec, &spec)
		var compiled *job.Compiled
		if err == nil {
			compiled, err = job.CompileWithCache(spec, s.topo)
		}
		if err != nil {
			s.persist(store.Record{JobID: v.ID, Hash: v.Hash, State: store.StateFailed,
				Error: fmt.Sprintf("recovery: %v", err)})
			continue
		}
		// Recovery never registers executions in the dedup index: each
		// persisted job resumes as an independent execution (identical
		// ones converge through the result cache).
		x := &execution{id: v.ID, compiled: compiled}
		select {
		case s.queue <- x:
		default:
			compiled.ReleaseTopo()
			return n, fmt.Errorf("%w: %d jobs recovered, %s and later still pending", ErrQueueFull, n, v.ID)
		}
		s.addLocked(&entry{id: v.ID, hash: compiled.Hash, spec: compiled.Spec, specJSON: compiled.SpecJSON}, x, causeRecover)
		n++
	}
	return n, nil
}

// Batch is a client-facing snapshot of one batch submission: the member
// jobs in submission order plus aggregate progress.
type Batch struct {
	ID   string `json:"id"`
	Jobs []*Job `json:"jobs"`
	// Done counts member jobs in a terminal state; the batch is finished
	// when Done == len(Jobs).
	Done int `json:"done"`
	// Failed counts member jobs that failed or were canceled.
	Failed int `json:"failed"`
	// CacheHits counts member jobs served from the result cache.
	CacheHits int `json:"cache_hits"`
	// Deduped counts member jobs that joined another job's execution.
	Deduped int `json:"deduped,omitempty"`
}

// SubmitBatch validates and enqueues a parameter sweep as one batch,
// all-or-nothing: if any spec fails validation, or the queue lacks room
// for every job that is not a cache hit or a duplicate of an in-flight
// job, nothing is enqueued. Jobs sharing a graph fingerprint are enqueued
// contiguously so workers run them back to back against a warm topology
// snapshot; the client-visible member order (Batch.Jobs, GetBatch) stays
// the submission order. The member jobs are ordinary jobs (Get/Cancel/Watch work on them
// individually); GetBatch aggregates them.
func (s *Service) SubmitBatch(specs []job.Spec) (*Batch, error) {
	if len(specs) == 0 {
		return nil, ErrEmptyBatch
	}
	if len(specs) > MaxBatchSize {
		return nil, fmt.Errorf("%w: %d specs, ceiling is %d", ErrBatchTooLarge, len(specs), MaxBatchSize)
	}
	compiled := make([]*job.Compiled, len(specs))
	release := func(from int) {
		for i := from; i < len(compiled); i++ {
			if compiled[i] != nil {
				compiled[i].ReleaseTopo()
			}
		}
	}
	for i, sp := range specs {
		c, err := job.CompileWithCache(sp, s.topo)
		if err != nil {
			release(0)
			return nil, fmt.Errorf("specs[%d]: %w", i, err)
		}
		compiled[i] = c
	}
	// Affinity grouping: enqueue in fingerprint order (stable, so
	// same-graph jobs keep their relative submission order).
	enq := make([]int, len(compiled))
	for i := range enq {
		enq[i] = i
	}
	sort.SliceStable(enq, func(a, b int) bool {
		return compiled[enq[a]].Fingerprint < compiled[enq[b]].Fingerprint
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		release(0)
		return nil, ErrClosed
	}
	// Capacity pre-check makes the enqueue loop infallible: count the jobs
	// that will actually need a queue slot. Cache hits are born done, and
	// duplicates — of an in-flight job or of an earlier member of this
	// very batch — join its execution without a slot.
	need := 0
	seen := make(map[string]bool)
	for _, c := range compiled {
		if _, ok := s.resultForHash(c.Hash); ok {
			continue
		}
		if !s.cfg.NoDedup {
			if _, infl := s.inflight[c.Hash]; infl || seen[c.Hash] {
				continue
			}
			seen[c.Hash] = true
		}
		need++
	}
	if need > cap(s.queue)-len(s.queue) {
		release(0)
		return nil, ErrQueueFull
	}
	s.nextBatch++
	bid := fmt.Sprintf("b%04d", s.nextBatch)
	ids := make([]string, len(compiled))
	for k, i := range enq {
		e, err := s.submitLocked(compiled[i])
		if err != nil {
			// Unreachable given the pre-check; surface it rather than
			// leaving a half-registered batch silently.
			for _, j := range enq[k:] {
				compiled[j].ReleaseTopo()
			}
			return nil, fmt.Errorf("batch %s: %w", bid, err)
		}
		ids[i] = e.id
	}
	s.batches[bid] = ids
	return s.batchLocked(bid, ids), nil
}

// GetBatch returns an aggregate snapshot of batch id.
func (s *Service) GetBatch(id string) (*Batch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids, ok := s.batches[id]
	if !ok {
		return nil, ErrNotFound
	}
	return s.batchLocked(id, ids), nil
}

// batchLocked renders a batch snapshot. Callers hold s.mu.
func (s *Service) batchLocked(id string, ids []string) *Batch {
	b := &Batch{ID: id, Jobs: make([]*Job, 0, len(ids))}
	for _, jid := range ids {
		e := s.jobs[jid]
		b.Jobs = append(b.Jobs, snapshot(e))
		if e.state.Terminal() {
			b.Done++
		}
		if e.state == StateFailed || e.state == StateCanceled {
			b.Failed++
		}
		if e.cacheHit {
			b.CacheHits++
		}
		if e.dedupOf != "" {
			b.Deduped++
		}
	}
	return b
}

// Get returns a snapshot of job id.
func (s *Service) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return snapshot(e), nil
}

// List returns snapshots of every job in submission order.
func (s *Service) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, snapshot(s.jobs[id]))
	}
	return out
}

// Cancel requests cancellation of job id: a queued or running job turns
// canceled at once and leaves its execution, which stops at the next
// round boundary once no job waits on it. Canceling a terminal job is a
// no-op.
func (s *Service) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	s.cancelLocked(e)
	return snapshot(e), nil
}

// cancelLocked cancels one queued or running job: it turns canceled and
// leaves its execution. A canceled creator also takes the execution out
// of the dedup index, so later identical submissions start afresh. The
// execution stops once its last member has left: a queued one is skipped
// by the pool, a running one has its context canceled. Callers hold s.mu.
func (s *Service) cancelLocked(e *entry) {
	x := e.exec
	if x == nil {
		return
	}
	if e.dedupOf == "" {
		s.dropInflightLocked(x)
	}
	s.transition(e, StateCanceled, causeCancel)
	e.exec = nil
	for i, m := range x.members {
		if m == e {
			x.members = append(x.members[:i], x.members[i+1:]...)
			break
		}
	}
	if len(x.members) == 0 && x.cancel != nil {
		x.cancel()
	}
}

// CancelAll cancels every queued and running job (forced-shutdown path)
// and reports how many jobs it touched.
func (s *Service) CancelAll() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.jobs {
		if e.state == StateQueued || e.state == StateRunning {
			s.cancelLocked(e)
			n++
		}
	}
	return n
}

// Watch subscribes to job id's progress stream. The returned channel
// carries round-by-round Progress events and is closed after the terminal
// event. The returned stop function detaches the subscription (safe to
// call at any time, including after the channel closed). A terminal job
// yields its terminal event immediately.
func (s *Service) Watch(id string) (<-chan Progress, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch := make(chan Progress, 64)
	if e.state.Terminal() {
		ch <- TerminalProgress(snapshot(e))
		close(ch)
		return ch, func() {}, nil
	}
	e.subs[ch] = struct{}{}
	stop := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, still := e.subs[ch]; still {
			delete(e.subs, ch)
			close(ch)
		}
	}
	return ch, stop, nil
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Submitted:      int64(len(s.jobs)),
		Completed:      s.reached[StateDone],
		Failed:         s.reached[StateFailed],
		Canceled:       s.reached[StateCanceled],
		Interrupted:    s.reached[StateInterrupted],
		CacheHits:      s.created[causeCache],
		Recovered:      s.created[causeRecover],
		DedupCoalesced: s.created[causeDedup],
		Degraded:       s.breakerOpen,
		Queued:         len(s.queue),
		CacheEntries:   s.cache.len(),
	}
	s.mu.Unlock()
	st.SyncFailures = s.syncFails.Load()
	st.BreakerTrips = s.breakerTrips.Load()
	st.DegradedDropped = s.degradedDrop.Load()
	st.Backfilled = s.backfilled.Load()
	st.RoundsSimulated = s.rounds.Load()
	st.PanicsRecovered = s.panics.Load()
	st.Retries = s.retries.Load()
	st.StoreErrors = s.storeErrs.Load()
	st.Running = int(s.running.Load())
	st.Workers = s.cfg.Workers
	st.AffinityHits = s.affinityHits.Load()
	st.AffinityMisses = s.affinityMisses.Load()
	if s.topo != nil {
		ts := s.topo.Stats()
		st.TopoCacheHits = ts.Hits
		st.TopoCacheMisses = ts.Misses
		st.TopoCacheCoalesced = ts.InflightCoalesced
		st.TopoCacheEvictions = ts.Evictions
		st.TopoCacheBytes = ts.ResidentBytes
		st.TopoCacheEntries = ts.Entries
	}
	return st
}

// TopologyCache exposes the shared snapshot cache (nil when disabled) —
// the benchmark harness and tests assert build counts through it.
func (s *Service) TopologyCache() *topology.Cache { return s.topo }

// Readiness is a point-in-time health verdict for load balancers and
// probes: Ready means a Submit issued now would be accepted and a worker
// will eventually pick it up.
type Readiness struct {
	Ready bool `json:"ready"`
	// Reason explains a not-ready verdict ("closed", "no live workers",
	// "queue full").
	Reason string `json:"reason,omitempty"`
	// Degraded reports an open store circuit breaker: the service still
	// accepts and runs jobs (Ready stays true), but durability is
	// suspended — results serve from memory and log appends wait for the
	// breaker to close and backfill. Operators alert on it; load balancers
	// need not drain on it.
	Degraded bool `json:"degraded,omitempty"`
	// Queued and QueueDepth report queue saturation; clients seeing
	// Queued near QueueDepth should back off before Submit fails.
	Queued     int `json:"queued"`
	QueueDepth int `json:"queue_depth"`
	Running    int `json:"running"`
	// Workers counts live pool goroutines (panic recovery keeps this at
	// the configured pool size; 0 means the pool is gone).
	Workers int `json:"workers"`
}

// Readiness reports whether the service can accept work right now.
func (s *Service) Readiness() Readiness {
	s.mu.Lock()
	closed := s.closed
	queued := len(s.queue)
	degraded := s.breakerOpen
	s.mu.Unlock()
	r := Readiness{
		Degraded:   degraded,
		Queued:     queued,
		QueueDepth: s.cfg.QueueDepth,
		Running:    int(s.running.Load()),
		Workers:    int(s.workersAlive.Load()),
	}
	switch {
	case closed:
		r.Reason = "closed"
	case r.Workers == 0:
		r.Reason = "no live workers"
	case queued >= s.cfg.QueueDepth:
		r.Reason = "queue full"
	default:
		r.Ready = true
	}
	return r
}

// Close stops intake and drains: every already-queued job still runs to
// completion, then the workers exit. Close blocks until the pool is idle
// and is idempotent. Use CancelAll first for a fast shutdown.
func (s *Service) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Shutdown gracefully stops a durable service: intake closes, every
// running job is asked to flush its engine state to a checkpoint (ending
// interrupted, to resume on the next boot's Recover), and queued jobs
// stay queued in the log instead of running. Shutdown blocks until the
// pool is idle; if ctx expires first it falls back to hard cancellation
// and returns the context's error. Without a store, Shutdown degrades to
// Close's drain.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		// Only a durable service may strand queued jobs: without a log
		// they would simply vanish, so drain them instead.
		s.shutdown = s.cfg.Store != nil
		close(s.queue)
	}
	for _, e := range s.jobs {
		if x := e.exec; x != nil && x.flush != nil {
			select {
			case x.flush <- struct{}{}:
			default:
			}
		}
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.CancelAll()
		<-done
		return ctx.Err()
	}
}

// worker is one pool goroutine: it pops executions until the queue
// closes. It keeps the graph fingerprint of the execution it last ran: a
// match means the next one compiles and runs against an already-resident
// snapshot (SubmitBatch's fingerprint grouping exists to make that
// common), and the hit/miss counters prove the grouping works.
func (s *Service) worker() {
	defer s.wg.Done()
	defer s.workersAlive.Add(-1)
	last := ""
	for x := range s.queue {
		if key := x.compiled.Fingerprint; key != "" {
			if key == last {
				s.affinityHits.Add(1)
			} else {
				s.affinityMisses.Add(1)
			}
			last = key
		} else {
			last = ""
		}
		s.runOne(x)
	}
}

// runOne executes one execution under its deadline, publishing progress
// to its members and settling each of them exactly once.
func (s *Service) runOne(x *execution) {
	s.mu.Lock()
	if len(x.members) == 0 || s.shutdown {
		// Every member left while queued, or graceful shutdown is draining
		// the channel, not the work: the members stay queued — in memory
		// and in the log — for the next boot's Recover. Either way this
		// process's snapshot pin is moot.
		s.mu.Unlock()
		x.compiled.ReleaseTopo()
		return
	}
	ctx := context.Background()
	var cancel context.CancelFunc
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	x.cancel = cancel
	x.started = time.Now()
	for _, m := range x.members {
		s.transition(m, StateRunning, causeRun)
	}
	if s.cfg.Store != nil {
		x.flush = make(chan struct{}, 1)
	}
	s.mu.Unlock()
	defer cancel()

	s.running.Add(1)
	defer s.running.Add(-1)

	every := s.cfg.ProgressEvery
	obs := func(round int, outs []model.Value) {
		s.rounds.Add(1)
		if round%every != 0 {
			return
		}
		s.mu.Lock()
		watched := false
		for _, m := range x.members {
			if len(m.subs) > 0 {
				watched = true
				break
			}
		}
		s.mu.Unlock()
		if !watched {
			// The warm path of a sweep has no stream subscribers: skip
			// the per-round output conversion (and its allocations)
			// outright.
			return
		}
		outputs, maxErr := job.Numeric(outs, x.compiled.Expected)
		s.publish(x, Progress{
			State:   StateRunning,
			Round:   round,
			Outputs: outputs,
			MaxErr:  job.F64(maxErr),
		})
	}
	res, err := s.execute(ctx, x, obs)
	var r *encodedResult
	if err == nil {
		// Encode the result once, outside the lock: every member, the
		// LRU, the done record and every response share these bytes.
		r = encodeResult(res)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	x.cancel = nil
	s.settleLocked(x, r, err)
	x.compiled.ReleaseTopo()
}

// settleLocked applies one finished execution to every member still
// waiting on it: one transition each, one result-cache insert, one
// result payload in the log (the other members' done records resolve
// through the shared hash). A run stopped because every member left has
// nobody to settle. Callers hold s.mu.
func (s *Service) settleLocked(x *execution, r *encodedResult, err error) {
	s.dropInflightLocked(x)
	for _, m := range x.members {
		switch {
		case err == nil:
			m.result = r
			s.transition(m, StateDone, causeRun)
		case errors.Is(err, engine.ErrInterrupted):
			// Graceful shutdown flushed the engine to a checkpoint: the
			// job is not terminal — each member resumes (via Recover) on
			// the next boot as an independent job.
			s.transition(m, StateInterrupted, causeRun)
		default:
			m.err = err.Error()
			s.transition(m, StateFailed, causeRun)
		}
		m.exec = nil
	}
	x.members = nil
	if err == nil {
		s.cache.add(x.compiled.Hash, r)
	}
	if s.cfg.Store != nil && !errors.Is(err, engine.ErrInterrupted) {
		s.cfg.Store.DropCheckpoints(x.compiled.Hash)
	}
	if s.cfg.JobLatency != nil {
		s.cfg.JobLatency.Observe(time.Since(x.started).Seconds())
	}
}

// execute runs one execution with panic recovery and bounded
// exponential-backoff retries for errors wrapping ErrTransient. A retried
// execution replays its progress stream from round 1.
func (s *Service) execute(ctx context.Context, x *execution, obs engine.Observer) (*job.Result, error) {
	for attempt := 0; ; attempt++ {
		res, err := s.safeRun(ctx, x, attempt, obs)
		if err == nil || !errors.Is(err, ErrTransient) || attempt >= s.cfg.MaxRetries {
			return res, err
		}
		s.retries.Add(1)
		backoff := s.cfg.RetryBase << uint(attempt)
		timer := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
	}
}

// safeRun makes one attempt — the Intercept hook, then the checkpointed
// engine run — converting a panic into an ordinary failed-job error
// carrying the panic value and stack. The worker goroutine survives; the
// service keeps serving. (The sequential engine deliberately propagates
// agent panics; this is where they stop.)
func (s *Service) safeRun(ctx context.Context, x *execution, attempt int, obs engine.Observer) (res *job.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			res = nil
			err = fmt.Errorf("service: job %s panicked: %v\n%s", x.id, r, debug.Stack())
		}
	}()
	if s.cfg.Intercept != nil {
		if err := s.cfg.Intercept(ctx, x.id, attempt); err != nil {
			return nil, err
		}
	}
	var ck job.CheckpointConfig
	if s.cfg.Store != nil {
		ck = s.checkpointConfig(x)
	}
	return job.RunCheckpointed(ctx, x.compiled, obs, ck)
}

// checkpointConfig wires one execution to the durable store: periodic
// snapshots land as checkpoint blobs keyed by the spec hash, the
// execution's flush channel carries shutdown's flush request, and any
// on-disk checkpoint of the same hash — a previous run of this exact
// computation — seeds the resume.
func (s *Service) checkpointConfig(x *execution) job.CheckpointConfig {
	hash := x.compiled.Hash
	ck := job.CheckpointConfig{
		Every: s.cfg.CheckpointEvery,
		Flush: x.flush,
		Save: func(round int, blob []byte) error {
			// A checkpoint is an optimization, not a correctness need: a
			// failed or skipped save must never fail the job (the run just
			// resumes from an older round after a crash). Failures feed the
			// breaker like any other store error; while degraded, saves are
			// skipped outright.
			s.mu.Lock()
			degraded := s.degradedLocked()
			s.mu.Unlock()
			if degraded {
				s.degradedDrop.Add(1)
				return nil
			}
			if err := s.cfg.Store.SaveCheckpoint(hash, round, blob); err != nil {
				s.mu.Lock()
				s.noteStoreFailureLocked(err)
				s.mu.Unlock()
				return nil
			}
			s.mu.Lock()
			s.noteStoreSuccessLocked()
			x.ckptRound = round
			s.mu.Unlock()
			return nil
		},
	}
	if blob, _, err := s.cfg.Store.LatestCheckpoint(hash); err == nil {
		ck.Resume = blob
	}
	return ck
}

// publish fans an event out to every member of x under its own job ID,
// dropping events a slow subscriber has no buffer for (the terminal
// event is handled by finishLocked and never dropped silently: the
// channel close itself is the durable signal).
func (s *Service) publish(x *execution, ev Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range x.members {
		ev.JobID = m.id
		for ch := range m.subs {
			select {
			case ch <- ev:
			default:
			}
		}
	}
}

// finishLocked sends the terminal event and closes every subscription.
// Callers hold s.mu.
func (s *Service) finishLocked(e *entry) {
	if len(e.subs) == 0 {
		return
	}
	ev := TerminalProgress(snapshot(e))
	for ch := range e.subs {
		select {
		case ch <- ev:
		default:
		}
		close(ch)
		delete(e.subs, ch)
	}
}

// TerminalProgress renders a terminal job snapshot as the stream event
// that ends its watch stream — the one builder of that event, for Watch,
// for the streams a job's terminal transition ends, and for stream
// consumers that see the channel close without a Done event (publish
// drops events a slow subscriber has no buffer for, the terminal one
// included) and synthesize the final line. On a snapshot from the
// service, the event's encoded outputs are a sub-slice of the result's
// encoding.
func TerminalProgress(j *Job) Progress {
	ev := Progress{JobID: j.ID, State: j.State, Done: true, Error: j.Error}
	if r := j.Result; r != nil {
		ev.Round = r.Rounds
		ev.Outputs = r.Outputs
		ev.MaxErr = r.MaxErr
		if j.encoded != nil && j.encoded.res == r {
			ev.outputsJSON = j.encoded.outputs
		}
	}
	return ev
}

// snapshot renders an entry as a client-facing Job. Callers hold s.mu.
func snapshot(e *entry) *Job {
	j := &Job{
		ID:        e.id,
		Hash:      e.hash,
		Spec:      e.spec,
		State:     e.state,
		Error:     e.err,
		CacheHit:  e.cacheHit,
		DedupOf:   e.dedupOf,
		Submitted: e.submitted,
		specJSON:  e.specJSON,
		encoded:   e.result,
	}
	if e.result != nil {
		j.Result = e.result.res
	}
	if !e.started.IsZero() {
		t := e.started
		j.Started = &t
	}
	if !e.finished.IsZero() {
		t := e.finished
		j.Finished = &t
	}
	return j
}
