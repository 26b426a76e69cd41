// Package service is the heart of anonnetd: a bounded job queue feeding a
// worker pool that executes validated job.Specs through the round engines,
// with per-job deadlines and cancellation, an index of done results keyed
// by the canonical spec hash, round-by-round progress subscriptions, and a
// Stats snapshot of its counters. Every job the service learns about — a
// submission, a batch member, or a pending job read back from the log —
// enters through one admission pass that serves it from the result tiers,
// joins it to the identical execution in flight, or gives it its own. The
// service is embeddable: cmd/anonnetd wraps it in an HTTP API, tests drive
// it directly.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"anonnet/internal/engine"
	"anonnet/internal/job"
	"anonnet/internal/metrics"
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
)

// MaxBatchSize bounds the number of specs in one SubmitBatch call — a
// batch must not be able to claim the whole default queue.
const MaxBatchSize = 64

// Config tunes a Service. The zero value selects sensible defaults.
type Config struct {
	// Workers is the pool size (default runtime.GOMAXPROCS(0)).
	Workers int
	// QueueDepth bounds admission: Submit and SubmitBatch refuse a new
	// execution while this many are queued but not running (default 64).
	// Recover's jobs were admitted before the restart and are not refused:
	// the queue holds them beside QueueDepth new ones, and admission stays
	// closed until the backlog drains below QueueDepth.
	QueueDepth int
	// JobTimeout is the per-job deadline (default 2m; negative disables).
	JobTimeout time.Duration
	// ProgressEvery publishes a progress event every k rounds (default 1:
	// every round).
	ProgressEvery int
	// Store, when non-nil, makes the service durable: every job state
	// transition is appended to the log, done results are served from disk
	// when no job of this process holds them, running jobs checkpoint their
	// engine state, and Recover re-registers non-terminal jobs after a
	// restart.
	Store *store.Store
	// CheckpointEvery snapshots a running job's engine every k rounds
	// (default 50 when Store is set; meaningless without one). Shutdown
	// flushes a final checkpoint regardless.
	CheckpointEvery int
	// JobLatency, when non-nil, observes each finished job's wall-clock
	// seconds (the /metrics latency histogram).
	JobLatency *metrics.Histogram
	// Intercept, when non-nil, runs once per execution, after the run has
	// built its network and before the engine starts, with the ID of the
	// job that created the execution. A returned error fails the
	// execution's jobs, and a panic is recovered into failed jobs, never a
	// dead worker. Injection point for the chaos layer's worker failpoints
	// and tests.
	Intercept func(ctx context.Context, jobID string) error
	// TopoCacheBytes bounds the shared topology-snapshot cache in bytes
	// (≤ 0 selects topology.DefaultCacheBytes). Jobs whose specs share a
	// graph fingerprint — same builder, dimensions, model kind, and seed
	// when the builder is seeded — run on one refcounted immutable
	// snapshot instead of each building their own.
	TopoCacheBytes int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
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
	return c
}

// Job is a client-facing snapshot of one job.
type Job struct {
	ID   string `json:"id"`
	Hash string `json:"hash"`
	// Spec is the canonical spec's JSON encoding as the job keeps it
	// (job.Compiled.SpecJSON): values are left out when they are the
	// model's default inputs. Hash digests the canonical spec with them
	// written out, and job.Decode of Spec compiles back to the same hash.
	// On a snapshot from the service it is shared with the service and
	// must not be modified.
	Spec     json.RawMessage `json:"spec"`
	State    State           `json:"state"`
	Error    string          `json:"error,omitempty"`
	CacheHit bool            `json:"cache_hit,omitempty"`
	// DedupOf names the job whose execution this job joined because it
	// was submitted while an identical job was in flight.
	DedupOf string `json:"dedup_of,omitempty"`
	// Result is set when State is done: the JSON encoding of the run's
	// job.Result, which decodes back into one. On a snapshot from the
	// service it is shared with the service and must not be modified.
	Result    json.RawMessage `json:"result,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started,omitempty"`
	Finished  *time.Time      `json:"finished,omitempty"`
}

// Progress is one event on a job's watch stream: a round-by-round sample
// while running, then exactly one last event (Done=true) carrying the
// terminal state, or interrupted when a durable shutdown flushed the job,
// or queued when a durable shutdown left the job queued. An interrupted or
// queued last event has no round and no outputs: the job has no result
// yet, and the next boot resumes or runs it.
type Progress struct {
	JobID string `json:"job_id"`
	State State  `json:"state"`
	Round int    `json:"round,omitempty"`
	// Outputs is the output vector's JSON array. On an event from the
	// service it is shared with every subscriber and must not be
	// modified: a running event's is encoded once per published round, a
	// terminal event's is a sub-slice of the job's Result.
	Outputs json.RawMessage `json:"outputs,omitempty"`
	MaxErr  job.F64         `json:"max_err"`
	Done    bool            `json:"done,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// Stats is a snapshot of the service counters (rendered by anonnetd's
// /v1/stats and /metrics).
type Stats struct {
	Submitted       int64 `json:"submitted"`
	Completed       int64 `json:"completed"`
	Failed          int64 `json:"failed"`
	Canceled        int64 `json:"canceled"`
	CacheHits       int64 `json:"cache_hits"`
	RoundsSimulated int64 `json:"rounds_simulated"`
	PanicsRecovered int64 `json:"panics_recovered"`
	// Recovered counts jobs re-registered from the durable store at boot,
	// whether they run, join an identical one or are served from the log
	// (CacheHits and DedupCoalesced count submissions only); Interrupted
	// counts running jobs a durable shutdown stopped, each flushed to a
	// checkpoint when its algorithm can checkpoint.
	Recovered   int64 `json:"recovered"`
	Interrupted int64 `json:"interrupted"`
	// StoreErrors counts durable-store append and checkpoint failures (the
	// service keeps serving from memory when the disk misbehaves),
	// including records too large for the log, which are logged without
	// their spec and result; SyncFailures is the subset that lost only
	// durability, not data (store.ErrSyncFailed).
	StoreErrors  int64 `json:"store_errors"`
	SyncFailures int64 `json:"sync_failures"`
	// Backfilled counts dirty jobs re-persisted by a later append that
	// landed; Degraded reports whether some job is dirty right now: its
	// latest transition is missing from the log.
	Backfilled int64 `json:"backfilled"`
	Degraded   bool  `json:"degraded"`
	// Sweep fast path: the shared topology-snapshot cache and the
	// single-flight dedup layer above it.
	TopoCacheHits      int64 `json:"topo_cache_hits"`
	TopoCacheMisses    int64 `json:"topo_cache_misses"`
	TopoCacheCoalesced int64 `json:"topo_cache_coalesced"`
	TopoCacheEvictions int64 `json:"topo_cache_evictions"`
	TopoCacheBytes     int64 `json:"topo_cache_bytes"`
	TopoCacheEntries   int   `json:"topo_cache_entries"`
	DedupCoalesced     int64 `json:"dedup_coalesced"`
	Queued             int   `json:"queued"`
	Running            int   `json:"running"`
	// CacheEntries counts the spec hashes in the result index.
	CacheEntries int `json:"cache_entries"`
	Workers      int `json:"workers"`
}

// Service is the concurrent simulation service.
type Service struct {
	cfg Config

	// topo is the process-wide shared topology-snapshot cache every
	// run builds from.
	topo *topology.Cache

	mu        sync.Mutex
	jobs      map[string]*entry
	order     []string
	batches   map[string][]string
	results   map[string][]byte     // canonical hash → the encoded result this process's done jobs hold
	inflight  map[string]*execution // canonical hash → the identical execution in flight
	closed    bool
	shutdown  bool // graceful shutdown: queued jobs stay queued for the next boot
	nextID    int64
	nextBatch int64

	// Lifecycle counters, bumped only by transition: new entries by
	// cause, later transitions by target state.
	created map[cause]int64
	reached map[State]int64

	// dirty holds the jobs whose latest transition an append lost; the
	// next append that lands backfills them (persist always runs under mu):
	// a job the service holds from its entry, and any other — one Recover
	// failed without registering it — from the lost record it maps to.
	dirty map[string]*store.Record

	queue chan *execution
	wg    sync.WaitGroup

	rounds       atomic.Int64
	running      atomic.Int64
	panics       atomic.Int64
	storeErrs    atomic.Int64
	syncFails    atomic.Int64
	backfilled   atomic.Int64
	workersAlive atomic.Int64
}

// New starts a Service with cfg's worker pool. Callers must Close it.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		topo:     topology.NewCache(cfg.TopoCacheBytes),
		jobs:     make(map[string]*entry),
		batches:  make(map[string][]string),
		results:  make(map[string][]byte),
		inflight: make(map[string]*execution),
		created:  make(map[cause]int64),
		reached:  make(map[State]int64),
		dirty:    make(map[string]*store.Record),
	}
	depth := cfg.QueueDepth
	if cfg.Store != nil {
		// Continue the persisted ID sequence so recovered and new jobs
		// never collide, and make room for an execution per pending job.
		s.nextID = cfg.Store.MaxJobSeq()
		depth += cfg.Store.Stats().Pending
	}
	s.queue = make(chan *execution, depth)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		s.workersAlive.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates and enqueues spec. When an identical computation (same
// canonical hash) has a result in the result tiers, the job is born done
// with CacheHit set and no work is queued. Returns the job snapshot.
func (s *Service) Submit(spec job.Spec) (*Job, error) {
	compiled, err := job.Compile(spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	es, err := s.admitLocked([]*job.Compiled{compiled}, nil)
	if err != nil {
		return nil, err
	}
	return snapshot(es[0]), nil
}

// admitLocked registers every job the service learns about, in order and
// in one pass: a Submit's one, a batch's members, or the pending jobs
// Recover read from the log, under their logged ids. Each job is born
// done from the result tiers, joins the execution in flight for its hash
// (or one an earlier job of cs starts), or gets an execution of its own
// on the queue. Submissions are all-or-nothing: when their new executions
// do not fit in QueueDepth minus the queued ones, admitLocked returns
// ErrQueueFull and registers nothing. Recovered jobs skip that check,
// since New sized the queue for them, and count as recovered whatever
// becomes of them. Callers hold s.mu.
func (s *Service) admitLocked(cs []*job.Compiled, ids []string) ([]*entry, error) {
	es := make([]*entry, len(cs))
	starts := make(map[string]bool) // hashes a job of cs starts an execution for
	for i, c := range cs {
		e := &entry{hash: c.Hash, specJSON: c.SpecJSON}
		if r, ok := s.resultForHash(c.Hash); ok {
			e.result, e.cacheHit = r, true
		} else if s.inflight[c.Hash] == nil {
			starts[c.Hash] = true
		}
		es[i] = e
	}
	hit, join, run := causeCache, causeDedup, causeSubmit
	if ids != nil {
		hit, join, run = causeRecover, causeRecover, causeRecover
	} else if len(starts) > max(0, s.cfg.QueueDepth-len(s.queue)) {
		return nil, ErrQueueFull
	}
	for i, e := range es {
		if ids != nil {
			e.id = ids[i]
		}
		switch x := s.inflight[e.hash]; {
		case e.cacheHit:
			s.addLocked(e, nil, hit)
		case x != nil:
			// Single-flight: the new job keeps its own ID, watch stream and
			// cancel button; the result and terminal state arrive from the
			// one execution. Equal hashes are equal bytes, so the new job
			// keeps the execution's spec encoding.
			e.specJSON = x.compiled.SpecJSON
			e.dedupOf = x.id
			s.addLocked(e, x, join)
		default:
			x := &execution{compiled: cs[i]}
			s.queue <- x
			s.addLocked(e, x, run)
			x.id = e.id
			s.inflight[e.hash] = x
		}
	}
	return es, nil
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

// resultForHash consults the two result tiers: the index of the results
// this process's done jobs hold, then the durable store. A disk hit
// serves the log's bytes once job.Summarize accepts them as an encoded
// Result, and enters the index. The index evicts nothing: every entry is
// a slice a done job keeps anyway. Callers hold s.mu.
func (s *Service) resultForHash(hash string) ([]byte, bool) {
	if r, ok := s.results[hash]; ok {
		return r, true
	}
	if s.cfg.Store == nil {
		return nil, false
	}
	r, ok := s.cfg.Store.ResultByHash(hash)
	if !ok {
		return nil, false
	}
	if _, _, _, ok := job.Summarize(r); !ok {
		return nil, false
	}
	s.results[hash] = r
	return r, true
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
// event, the interrupted one when a durable shutdown flushes the job, or
// the queued one when a durable shutdown leaves it queued for the next
// boot; a slow reader may miss round events, never that last one. The
// returned stop function detaches the subscription (safe to call at any
// time, including after the channel closed). A terminal, interrupted or
// stranded job yields its last event immediately.
func (s *Service) Watch(id string) (<-chan Progress, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch := make(chan Progress, 64)
	if e.state.settled() || s.stranded(e) {
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
		Degraded:       len(s.dirty) > 0,
		Queued:         len(s.queue),
		CacheEntries:   len(s.results),
	}
	s.mu.Unlock()
	st.SyncFailures = s.syncFails.Load()
	st.Backfilled = s.backfilled.Load()
	st.RoundsSimulated = s.rounds.Load()
	st.PanicsRecovered = s.panics.Load()
	st.StoreErrors = s.storeErrs.Load()
	st.Running = int(s.running.Load())
	st.Workers = s.cfg.Workers
	ts := s.topo.Stats()
	st.TopoCacheHits = ts.Hits
	st.TopoCacheMisses = ts.Misses
	st.TopoCacheCoalesced = ts.InflightCoalesced
	st.TopoCacheEvictions = ts.Evictions
	st.TopoCacheBytes = ts.ResidentBytes
	st.TopoCacheEntries = ts.Entries
	return st
}

// Readiness is a point-in-time health verdict for load balancers and
// probes: Ready means a Submit issued now would be accepted and a worker
// will eventually pick it up.
type Readiness struct {
	Ready bool `json:"ready"`
	// Reason explains a not-ready verdict ("closed", "no live workers",
	// "queue full").
	Reason string `json:"reason,omitempty"`
	// Degraded reports that the log lags memory: some job's latest
	// transition is missing from it, and the next append that lands
	// backfills it. The service still accepts and runs jobs (Ready stays
	// true) and serves results from memory. Operators alert on it; load
	// balancers need not drain on it.
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
	degraded := len(s.dirty) > 0
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
// stay queued in the log instead of running, their watch streams ended
// with their queued event. Shutdown blocks until the pool is idle; if ctx
// expires first it falls back to hard cancellation and returns the
// context's error. Without a store, Shutdown degrades to Close's drain.
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
		if s.stranded(e) {
			s.finishLocked(e)
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

// stranded reports whether e is a queued job a durable shutdown leaves
// for the next boot: it makes no transition in this process, so nothing
// else would end its watch streams. Callers hold s.mu.
func (s *Service) stranded(e *entry) bool { return s.shutdown && e.state == StateQueued }

// worker is one pool goroutine: it pops executions until the queue
// closes.
func (s *Service) worker() {
	defer s.wg.Done()
	defer s.workersAlive.Add(-1)
	for x := range s.queue {
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
		// and in the log — for the next boot's Recover.
		s.mu.Unlock()
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

	res, err := s.safeRun(ctx, x)
	var r []byte
	if err == nil {
		// Encode the result once, outside the lock: every member, the
		// result index, the done record and every response share these
		// bytes, and nothing keeps the decoded result.
		r = job.EncodeResult(res)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	x.cancel = nil
	s.settleLocked(x, r, err)
}

// settleLocked applies one finished execution to every member still
// waiting on it: one transition each, one result-index entry, one
// result payload in the log (the other members' done records resolve
// through the shared hash). A run stopped because every member left has
// nobody to settle. Callers hold s.mu.
func (s *Service) settleLocked(x *execution, r []byte, err error) {
	s.dropInflightLocked(x)
	for _, m := range x.members {
		switch {
		case err == nil:
			m.result = r
			s.transition(m, StateDone, causeRun)
		case errors.Is(err, engine.ErrInterrupted):
			// Graceful shutdown flushed the engine to a checkpoint: the
			// job is not terminal — the members resume (via Recover) on the
			// next boot, as one execution again.
			s.transition(m, StateInterrupted, causeRun)
		default:
			m.err = err.Error()
			s.transition(m, StateFailed, causeRun)
		}
		m.exec = nil
	}
	x.members = nil
	if err == nil {
		s.results[x.compiled.Hash] = r
	}
	if s.cfg.Store != nil && !errors.Is(err, engine.ErrInterrupted) {
		s.cfg.Store.DropCheckpoints(x.compiled.Hash)
	}
	if s.cfg.JobLatency != nil {
		s.cfg.JobLatency.Observe(time.Since(x.started).Seconds())
	}
}

// safeRun makes x's one run — the build, the Intercept hook, then the
// checkpointed engine run — converting a panic into an ordinary
// failed-job error carrying the panic value and stack. The worker
// goroutine survives; the service keeps serving. (The sequential engine
// deliberately propagates agent panics; this is where they stop.) The
// run pins its topology-cache entry from the build until it returns.
func (s *Service) safeRun(ctx context.Context, x *execution) (res *job.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			res = nil
			err = fmt.Errorf("service: job %s panicked: %v\n%s", x.id, r, debug.Stack())
		}
	}()
	b, err := x.compiled.Build(s.topo)
	if err != nil {
		return nil, err
	}
	defer b.Release()
	if s.cfg.Intercept != nil {
		if err := s.cfg.Intercept(ctx, x.id); err != nil {
			return nil, err
		}
	}
	var ck job.CheckpointConfig
	if s.cfg.Store != nil {
		ck = s.checkpointConfig(x)
	}
	return job.RunCheckpointed(ctx, b, s.observer(x, b), ck)
}

// observer makes the round observer of x's run on build b: it counts
// every round and, every ProgressEvery rounds, publishes the outputs to
// x's members while any of them is watched.
func (s *Service) observer(x *execution, b *job.Built) engine.Observer {
	every := s.cfg.ProgressEvery
	return func(round int, r engine.Runner) {
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
			// The warm path of a sweep has no stream subscribers: read
			// no outputs at all.
			return
		}
		// Encode the outputs once: every subscriber shares the bytes.
		outputs, maxErr := job.Numeric(r.Outputs(), b.Expected)
		s.publish(x, Progress{
			State:   StateRunning,
			Round:   round,
			Outputs: job.AppendVector(nil, outputs),
			MaxErr:  job.F64(maxErr),
		})
	}
}

// publish fans an event out to every member of x under its own job ID,
// dropping events a slow subscriber has no buffer for (finishLocked makes
// room for the terminal event, so it is never dropped).
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

// finishLocked sends the last event and closes every subscription.
// A full buffer gives up its oldest event, so every stream ends with that
// last one; every send holds s.mu, so the freed slot stays free.
// Callers hold s.mu.
func (s *Service) finishLocked(e *entry) {
	if len(e.subs) == 0 {
		return
	}
	ev := TerminalProgress(snapshot(e))
	for ch := range e.subs {
		if len(ch) == cap(ch) {
			select {
			case <-ch:
			default:
			}
		}
		ch <- ev
		close(ch)
		delete(e.subs, ch)
	}
}

// TerminalProgress renders the snapshot of a terminal job, or of one a
// durable shutdown interrupted or left queued, as the stream event that
// ends its watch stream — the one builder of that event, for Watch and for
// the streams such a transition or shutdown ends. Its round, max error and
// outputs come from job.Summarize of the job's Result: the outputs are a
// sub-slice of those bytes. Only a done job has a Result, so an
// interrupted or queued job's event, like a failed or canceled one's,
// carries no round or outputs and a zero max error.
func TerminalProgress(j *Job) Progress {
	ev := Progress{JobID: j.ID, State: j.State, Done: true, Error: j.Error}
	ev.Outputs, ev.Round, ev.MaxErr, _ = job.Summarize(j.Result)
	return ev
}

// snapshot renders an entry as a client-facing Job. Callers hold s.mu.
func snapshot(e *entry) *Job {
	j := &Job{
		ID:        e.id,
		Hash:      e.hash,
		Spec:      e.specJSON,
		State:     e.state,
		Error:     e.err,
		CacheHit:  e.cacheHit,
		DedupOf:   e.dedupOf,
		Result:    e.result,
		Submitted: e.submitted,
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
