package service

// Model-based lifecycle coverage: seeded operation sequences — submits,
// batches, cancels, releases of held attempts, and durable restarts —
// run against a durable service and against a small reference model of
// entries and executions, and the two must agree after every operation.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"anonnet/internal/job"
	"anonnet/internal/store"
)

// TestLifecycleIllegalTransitionsPanic: every (from, to) pair outside the
// legal table panics in transition and leaves the entry untouched.
func TestLifecycleIllegalTransitionsPanic(t *testing.T) {
	states := []State{stateNew, StateQueued, StateRunning, StateInterrupted, StateDone, StateFailed, StateCanceled}
	illegal := 0
	for _, from := range states {
		for _, to := range states {
			if legal[from][to] {
				continue
			}
			illegal++
			e := &entry{id: "j000001", state: from}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("transition %q → %q did not panic", from, to)
					}
				}()
				new(Service).transition(e, to, causeRun)
			}()
			if e.state != from {
				t.Errorf("illegal transition %q → %q moved the entry to %q", from, to, e.state)
			}
		}
	}
	if want := len(states)*len(states) - 8; illegal != want {
		t.Fatalf("checked %d illegal pairs, want %d", illegal, want)
	}
}

// splitmix64 is the chaos layer's mixing step: operation k of a run is a
// pure function of (seed, k), so a failing seed replays exactly.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestLifecycleModel drives a durable one-worker service whose every
// attempt is held by Intercept until the test releases it, so the order
// of events is the test's alone. Three specs make duplicates and cache
// hits common. After each operation the service must match the model:
// every job's state, cache-hit flag and dedup link, and the Stats
// counters. Across restarts no job ID is ever issued twice, and the log
// holds exactly one result payload per execution that finished done.
func TestLifecycleModel(t *testing.T) {
	pool := []job.Spec{durableSpec(1, 30), durableSpec(2, 30), durableSpec(3, 30)}
	hashes := make([]string, len(pool))
	for i, sp := range pool {
		c, err := job.Compile(sp)
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = c.Hash
	}
	for seed := uint64(1); seed <= 64; seed++ {
		ok := t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runLifecycleModel(t, seed, pool, hashes)
		})
		if !ok {
			break // the failing seed is the reproduction; later ones would time out alike
		}
	}
}

func runLifecycleModel(t *testing.T, seed uint64, pool []job.Spec, hashes []string) {
	dir := t.TempDir()
	g := newGate()
	cfg := Config{Workers: 1, QueueDepth: 256, Intercept: g.intercept}
	boot := func() (*Service, *store.Store) {
		st := openStore(t, dir)
		cfg.Store = st
		return New(cfg), st
	}
	s, st := boot()
	m := newLifecycleModel()
	draw := func(k, n uint64) int { return int(splitmix64(seed^splitmix64(k)) % n) }

	for k := uint64(0); k < 32; k++ {
		op := draw(3*k, 20)
		switch {
		case op < 6: // submit
			i := draw(3*k+1, 3)
			j, err := s.Submit(pool[i])
			if err != nil {
				t.Fatalf("op %d submit: %v", k, err)
			}
			m.expectID(t, k, j.ID, m.submit(i))
		case op < 9: // batch submit
			n := 1 + draw(3*k+1, 3)
			specs := make([]job.Spec, n)
			idx := make([]int, n)
			for b := range specs {
				idx[b] = draw(3*k+2+uint64(b)<<32, 3)
				specs[b] = pool[idx[b]]
			}
			bt, err := s.SubmitBatch(specs)
			if err != nil {
				t.Fatalf("op %d batch: %v", k, err)
			}
			for b, j := range bt.Jobs {
				m.expectID(t, k, j.ID, m.submit(idx[b]))
			}
		case op < 14: // cancel a random known ID
			if len(m.issued) == 0 {
				continue
			}
			id := m.issued[draw(3*k+1, uint64(len(m.issued)))]
			_, err := s.Cancel(id)
			if known := m.cancel(id); known == errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d cancel %s: err %v, model knows the job: %v", k, id, err, known)
			}
		case op < 17: // release the held attempt
			if m.running == nil {
				continue
			}
			g.release(1)
			m.release()
		default: // durable shutdown, reopen, Recover
			done := make(chan error, 1)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			go func() { done <- s.Shutdown(ctx) }()
			// Shutdown requests the flush in the same critical section
			// that closes intake, so once readiness says closed the held
			// attempt can go: it runs one round and flushes.
			for s.Readiness().Reason != "closed" {
				time.Sleep(time.Millisecond)
			}
			if m.running != nil {
				g.release(1)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("op %d shutdown: %v", k, err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("op %d: shutdown still waiting on the pool", k)
			}
			cancel()
			m.shutdown()
			m.check(t, k, s, st, hashes)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			s, st = boot()
			n, err := s.Recover()
			if err != nil {
				t.Fatalf("op %d recover: %v", k, err)
			}
			if want := m.recover(); n != want {
				t.Fatalf("op %d: recovered %d jobs, model says %d", k, n, want)
			}
		}
		m.wait(t, k, s)
		m.check(t, k, s, st, hashes)
	}
	s.CancelAll()
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// lifecycleModel is the reference: entries and executions of the current
// process, the dedup index, the result tiers, and the per-process counters.
type lifecycleModel struct {
	jobs     map[string]*mEntry // current process
	order    []*mEntry
	queue    []*mExec // executions not yet started, FIFO
	running  *mExec   // the execution whose attempt Intercept holds
	inflight map[int]*mExec
	cached   map[int]bool // spec index → a result is in the result index or the log
	stats    Stats        // counters of the current process

	issued   []string         // every ID ever issued, in order
	last     map[string]State // latest state of every issued ID
	payloads map[int]int      // spec index → executions that finished done
	seq      int              // highest issued ID number
	pending  map[string]bool  // ID → not terminal at the last shutdown
	spec     map[string]int   // ID → spec index
}

type mEntry struct {
	id       string
	spec     int
	state    State
	cacheHit bool
	dedupOf  string
	exec     *mExec
}

type mExec struct {
	spec    int
	creator string
	members []*mEntry
}

func newLifecycleModel() *lifecycleModel {
	m := &lifecycleModel{last: map[string]State{}, payloads: map[int]int{}, spec: map[string]int{}}
	m.reset()
	return m
}

// reset starts a new process: nothing registered, caches cold except the
// log's results.
func (m *lifecycleModel) reset() {
	m.jobs = map[string]*mEntry{}
	m.order = nil
	m.queue = nil
	m.running = nil
	m.inflight = map[int]*mExec{}
	m.stats = Stats{}
	cached := map[int]bool{}
	for i, n := range m.payloads {
		cached[i] = n > 0
	}
	m.cached = cached
}

func (m *lifecycleModel) add(e *mEntry) {
	m.jobs[e.id] = e
	m.order = append(m.order, e)
	m.last[e.id] = e.state
	m.stats.Submitted++
}

func (m *lifecycleModel) setState(e *mEntry, to State) {
	e.state = to
	m.last[e.id] = to
}

// submit registers one submission and returns the ID it must get.
func (m *lifecycleModel) submit(i int) string {
	m.seq++
	e := &mEntry{id: fmt.Sprintf("j%06d", m.seq), spec: i}
	m.issued = append(m.issued, e.id)
	m.spec[e.id] = i
	m.admit(e)
	switch {
	case e.cacheHit:
		m.stats.CacheHits++
	case e.dedupOf != "":
		m.stats.DedupCoalesced++
	}
	m.advance()
	return e.id
}

// admit registers e as the service's one admission pass does: born done
// when its spec's result is cached, a member of the execution in flight
// for its spec, or the creator of a new execution entered in inflight.
func (m *lifecycleModel) admit(e *mEntry) {
	switch x := m.inflight[e.spec]; {
	case m.cached[e.spec]:
		e.state, e.cacheHit = StateDone, true
	case x != nil:
		e.state, e.dedupOf, e.exec = StateQueued, x.creator, x
		if x == m.running {
			e.state = StateRunning
		}
		x.members = append(x.members, e)
	default:
		x := &mExec{spec: e.spec, creator: e.id, members: []*mEntry{e}}
		e.state, e.exec = StateQueued, x
		m.queue = append(m.queue, x)
		m.inflight[e.spec] = x
	}
	m.add(e)
}

// advance lets the idle worker take the next execution that still has
// members; memberless ones are skipped.
func (m *lifecycleModel) advance() {
	for m.running == nil && len(m.queue) > 0 {
		x := m.queue[0]
		m.queue = m.queue[1:]
		if len(x.members) == 0 {
			continue
		}
		m.running = x
		for _, e := range x.members {
			m.setState(e, StateRunning)
		}
	}
}

// cancel applies Cancel(id) and reports whether the job is registered in
// the current process.
func (m *lifecycleModel) cancel(id string) bool {
	e, ok := m.jobs[id]
	if !ok {
		return false
	}
	x := e.exec
	if x == nil {
		return true
	}
	if e.dedupOf == "" && m.inflight[x.spec] == x {
		delete(m.inflight, x.spec)
	}
	m.setState(e, StateCanceled)
	m.stats.Canceled++
	e.exec = nil
	for k, o := range x.members {
		if o == e {
			x.members = append(x.members[:k], x.members[k+1:]...)
			break
		}
	}
	if len(x.members) == 0 && x == m.running {
		m.running = nil
		m.advance()
	}
	return true
}

// release lets the held attempt run its engine to completion.
func (m *lifecycleModel) release() {
	x := m.running
	m.running = nil
	if m.inflight[x.spec] == x {
		delete(m.inflight, x.spec)
	}
	for _, e := range x.members {
		m.setState(e, StateDone)
		e.exec = nil
		m.stats.Completed++
	}
	m.cached[x.spec] = true
	m.payloads[x.spec]++
	m.advance()
}

// shutdown flushes the held execution: its members end interrupted,
// queued jobs stay queued.
func (m *lifecycleModel) shutdown() {
	if x := m.running; x != nil {
		for _, e := range x.members {
			m.setState(e, StateInterrupted)
			e.exec = nil
			m.stats.Interrupted++
		}
		m.running = nil
	}
	m.pending = map[string]bool{}
	for _, e := range m.order {
		if !e.state.Terminal() {
			m.pending[e.id] = true
		}
	}
}

// recover starts the next process: every pending job comes back under its
// ID, in log order, and is admitted as a submission is, so identical jobs
// share one execution and a job whose result is logged is born done. Every
// one counts as recovered. Returns how many.
func (m *lifecycleModel) recover() int {
	m.reset()
	for _, id := range m.issued {
		if !m.pending[id] {
			continue
		}
		m.admit(&mEntry{id: id, spec: m.spec[id]})
		m.stats.Recovered++
	}
	m.advance()
	return int(m.stats.Recovered)
}

func (m *lifecycleModel) expectID(t *testing.T, k uint64, got, want string) {
	t.Helper()
	if got != want {
		t.Fatalf("op %d: job ID %s, model says %s (IDs must never be reissued)", k, got, want)
	}
}

// matches reports the first difference between the service and the
// model's view of every registered job, or "".
func (m *lifecycleModel) matches(s *Service) string {
	for _, e := range m.order {
		j, err := s.Get(e.id)
		if err != nil {
			return fmt.Sprintf("job %s: %v", e.id, err)
		}
		if j.State != e.state || j.CacheHit != e.cacheHit || j.DedupOf != e.dedupOf {
			return fmt.Sprintf("job %s is %s (cache hit %v, dedup of %q), model says %s (%v, %q)",
				e.id, j.State, j.CacheHit, j.DedupOf, e.state, e.cacheHit, e.dedupOf)
		}
	}
	return ""
}

// wait gives the worker time to reach the model's state: every event the
// model predicts is already in motion when an operation returns.
func (m *lifecycleModel) wait(t *testing.T, k uint64, s *Service) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for diff := m.matches(s); diff != ""; diff = m.matches(s) {
		if time.Now().After(deadline) {
			t.Fatalf("op %d: %s", k, diff)
		}
		time.Sleep(time.Millisecond)
	}
}

// check compares the settled service with the model: the counters, and
// the log's view of every ID ever issued.
func (m *lifecycleModel) check(t *testing.T, k uint64, s *Service, st *store.Store, hashes []string) {
	t.Helper()
	if diff := m.matches(s); diff != "" {
		t.Fatalf("op %d: %s", k, diff)
	}
	got := s.Stats()
	want := m.stats
	want.Queued, want.Running, want.CacheEntries, want.Workers = got.Queued, got.Running, got.CacheEntries, got.Workers
	got.RoundsSimulated = 0
	got.TopoCacheHits, got.TopoCacheMisses, got.TopoCacheCoalesced = 0, 0, 0
	got.TopoCacheEvictions, got.TopoCacheBytes, got.TopoCacheEntries = 0, 0, 0
	if got != want {
		t.Fatalf("op %d: stats\n got %+v\nwant %+v", k, got, want)
	}
	payloads := make(map[string]int)
	views := scanJobs(t, st)
	for _, v := range views {
		if len(v.Result) > 0 {
			payloads[v.Hash]++
		}
		if v.State != string(m.last[v.ID]) {
			t.Fatalf("op %d: log has job %s %s, model says %s", k, v.ID, v.State, m.last[v.ID])
		}
	}
	if n := len(views); n != len(m.issued) {
		t.Fatalf("op %d: log holds %d jobs, %d IDs were issued", k, n, len(m.issued))
	}
	for i, h := range hashes {
		if payloads[h] != m.payloads[i] {
			t.Fatalf("op %d: log holds %d result payloads for spec %d, %d executions finished done", k, payloads[h], i, m.payloads[i])
		}
	}
}
