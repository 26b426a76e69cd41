package service

// Service-level proof of the sweep fast path. A same-graph seed sweep
// must cost exactly one topology build (counter-asserted), identical
// specs must coalesce into one execution, every result must be
// byte-identical to the one job.Compile and job.Run give without the
// service, batch members get their IDs in submission order, durable
// dedup must persist the result payload exactly once and recover an
// interrupted pair as one execution, snapshots pinned by running jobs must
// survive eviction pressure, and queued jobs must pin none.

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"anonnet/internal/faults"
	"anonnet/internal/job"
	"anonnet/internal/store"
)

// sweepSpec is one member of a same-graph sweep: a static ring whose
// graph fingerprint is seed-independent, so the whole sweep shares one
// snapshot while every member is a distinct computation. The round
// budget stays small — exact rational push-sum state grows every round,
// so late rounds are the expensive ones.
func sweepSpec(n int, seed int64) job.Spec {
	return job.Spec{
		Graph:     job.GraphSpec{Builder: "ring", N: n},
		Kind:      "od",
		Function:  "average",
		Seed:      seed,
		MaxRounds: 8,
		Patience:  8,
	}
}

// TestSweepSingleTopologyBuild is the headline acceptance check at test
// scale: a same-graph batch sweep performs exactly one snapshot build,
// and every other member hits or coalesces on the shared cache.
func TestSweepSingleTopologyBuild(t *testing.T) {
	const members = 48
	s := New(Config{Workers: 1})
	defer s.Close()

	specs := make([]job.Spec, members)
	for i := range specs {
		specs[i] = sweepSpec(64, int64(i))
	}
	b, err := s.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Jobs) != members {
		t.Fatalf("batch has %d jobs, want %d", len(b.Jobs), members)
	}
	for _, j := range b.Jobs {
		waitTerminal(t, s, j.ID)
	}
	st := s.Stats()
	if st.TopoCacheMisses != 1 {
		t.Fatalf("sweep of %d same-graph jobs built %d snapshots, want exactly 1", members, st.TopoCacheMisses)
	}
	if got := st.TopoCacheHits + st.TopoCacheCoalesced; got != members-1 {
		t.Fatalf("hits+coalesced = %d, want %d", got, members-1)
	}
	if st.DedupCoalesced != 0 {
		t.Fatalf("distinct seeds coalesced: DedupCoalesced = %d", st.DedupCoalesced)
	}
	if st.Completed != members {
		t.Fatalf("Completed = %d, want %d", st.Completed, members)
	}
}

// TestSweepResultsMatchJobRun is the golden gate: the shared snapshot,
// dedup, and the result index are pure plumbing — every member of a mixed
// sweep (seed axis, duplicates, two graphs, a drop-only fault plan, every
// static builder under every model kind that admits max, and the starts
// and churn jobs that bypass the topology cache) must carry a result
// whose encoding is byte-identical to the one job.Compile and job.Run give
// for its spec, with no cache, no dedup and no service — or, where that
// run fails, the same error.
func TestSweepResultsMatchJobRun(t *testing.T) {
	mixed := make([]job.Spec, 0, 25)
	for seed := int64(0); seed < 8; seed++ {
		sp := sweepSpec(48, seed)
		mixed = append(mixed, sp, sp) // duplicate: dedup fodder
		sp.Graph.N = 32               // second fingerprint in the mix
		mixed = append(mixed, sp)
	}
	drop := sweepSpec(24, 3)
	drop.Faults = &faults.Plan{Drop: 0.2}
	mixed = append(mixed, drop)

	graphs := []job.GraphSpec{
		{Builder: "ring", N: 9}, {Builder: "bidiring", N: 9}, {Builder: "star", N: 9},
		{Builder: "path", N: 9}, {Builder: "complete", N: 6}, {Builder: "hypercube", D: 3},
		{Builder: "debruijn", K: 2, D: 3}, {Builder: "torus", Rows: 3, Cols: 4},
		{Builder: "random", N: 10}, {Builder: "randomsym", N: 10}, {Builder: "geometric", N: 10},
	}
	var static []job.Spec
	for _, kind := range []string{"bc", "od", "op", "sym", "onebit"} {
		for _, g := range graphs {
			sp := job.Spec{Graph: g, Kind: kind, Function: "max", Seed: 5, MaxRounds: 16}
			if _, err := job.Compile(sp); err == nil {
				static = append(static, sp)
			}
		}
	}
	if len(static) < len(graphs) {
		t.Fatalf("only %d builder×kind members compile with max", len(static))
	}

	starts := sweepSpec(24, 4)
	starts.Starts = make([]int, 24)
	for i := range starts.Starts {
		starts.Starts[i] = 1 + i%4
	}
	churn := sweepSpec(24, 6)
	churn.Faults = &faults.Plan{Churn: &faults.ChurnPlan{Drop: 0.3, Guard: faults.GuardRepair}}

	s := New(Config{Workers: 2})
	defer s.Close()
	checkBatchMatchesJobRun(t, s, mixed)
	checkBatchMatchesJobRun(t, s, static)
	// Starts and churn rewrite the round graph, so those jobs never touch
	// the topology cache.
	before := s.Stats()
	checkBatchMatchesJobRun(t, s, []job.Spec{starts, churn})
	after := s.Stats()
	if after.TopoCacheHits != before.TopoCacheHits || after.TopoCacheMisses != before.TopoCacheMisses ||
		after.TopoCacheCoalesced != before.TopoCacheCoalesced {
		t.Fatalf("starts/churn batch touched the topology cache: hits %d→%d misses %d→%d coalesced %d→%d",
			before.TopoCacheHits, after.TopoCacheHits, before.TopoCacheMisses, after.TopoCacheMisses,
			before.TopoCacheCoalesced, after.TopoCacheCoalesced)
	}
}

// checkBatchMatchesJobRun submits specs as one batch and checks each
// member against job.Compile + job.Run: the same result bytes, or the
// same error.
func checkBatchMatchesJobRun(t *testing.T, s *Service, specs []job.Spec) {
	t.Helper()
	b, err := s.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range b.Jobs {
		got := waitTerminal(t, s, j.ID)
		c, err := job.Compile(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		ref, err := job.Run(context.Background(), c, nil)
		if err != nil {
			if got.State != StateFailed || got.Error != err.Error() {
				t.Fatalf("specs[%d] (%s) ended %q (err %q); job.Run failed with %q", i, j.ID, got.State, got.Error, err)
			}
			continue
		}
		if got.State != StateDone {
			t.Fatalf("specs[%d] (%s) ended %q (err %q)", i, j.ID, got.State, got.Error)
		}
		if w := job.AppendResult(nil, ref); !bytes.Equal(got.Result, w) {
			t.Fatalf("specs[%d] (%s):\nservice %s\njob.Run %s", i, j.ID, got.Result, w)
		}
	}
}

// TestBatchIDsFollowSubmissionOrder: a batch mixing graphs gets its job
// IDs in the order it lists its members.
func TestBatchIDsFollowSubmissionOrder(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	var specs []job.Spec
	for seed := int64(0); seed < 4; seed++ {
		specs = append(specs, sweepSpec(48, seed), sweepSpec(32, seed))
	}
	b, err := s.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(b.Jobs); i++ {
		if prev, id := b.Jobs[i-1].ID, b.Jobs[i].ID; id <= prev {
			t.Fatalf("member %d has ID %s after %s", i, id, prev)
		}
	}
	for _, j := range b.Jobs {
		waitTerminal(t, s, j.ID)
	}
}

// TestSweepEvictionSparesRunningJobs drives the byte-budget eviction
// through the service: with a budget too small for even one snapshot,
// entries pinned by in-flight jobs survive (over budget) and are swept
// once their jobs finish.
func TestSweepEvictionSparesRunningJobs(t *testing.T) {
	g := newGate()
	s := New(Config{Workers: 2, Intercept: g.intercept, TopoCacheBytes: 1})
	defer s.Close()

	a, err := s.Submit(sweepSpec(64, 1))
	if err != nil {
		t.Fatal(err)
	}
	bj, err := s.Submit(sweepSpec(48, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, a.ID, StateRunning)
	waitState(t, s, bj.ID, StateRunning)
	g.waitHeld(t, 2) // both attempts have built and hold their entries

	st := s.Stats()
	if st.TopoCacheEntries != 2 {
		t.Fatalf("entries = %d while two jobs run, want 2 pinned", st.TopoCacheEntries)
	}
	if st.TopoCacheBytes <= 1 {
		t.Fatalf("resident bytes = %d, want pinned entries held over the 1-byte budget", st.TopoCacheBytes)
	}
	if st.TopoCacheEvictions != 0 {
		t.Fatalf("evicted %d entries while all were pinned", st.TopoCacheEvictions)
	}

	g.release(2)
	waitTerminal(t, s, a.ID)
	waitTerminal(t, s, bj.ID)
	deadline := time.Now().Add(15 * time.Second)
	for {
		st = s.Stats()
		if st.TopoCacheEntries == 0 && st.TopoCacheEvictions == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle entries not evicted under a 1-byte budget: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestQueuedJobsPinNoGraph: admission builds no network, so while the
// first member of a 64-ring batch is held mid-attempt on the only worker,
// the 63 queued members hold no topology entry.
func TestQueuedJobsPinNoGraph(t *testing.T) {
	g := newGate()
	s := New(Config{Workers: 1, Intercept: g.intercept})
	defer s.Close()

	specs := make([]job.Spec, MaxBatchSize)
	for i := range specs {
		specs[i] = sweepSpec(16+i, 1)
	}
	b, err := s.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	g.waitHeld(t, 1)
	st := s.Stats()
	g.release(MaxBatchSize)
	for _, j := range b.Jobs {
		if got := waitTerminal(t, s, j.ID); got.State != StateDone {
			t.Fatalf("job %s ended %q (err %q)", j.ID, got.State, got.Error)
		}
	}
	if st.TopoCacheEntries > 1 {
		t.Fatalf("%d topology entries resident while one job ran, want ≤ 1 (misses %d)", st.TopoCacheEntries, st.TopoCacheMisses)
	}
}

// TestDedupDurableResultPersistedOnce: with a store attached, a deduped
// pair lands exactly one result payload in the log (on the leader's done
// record); the follower's trail resolves through the shared hash.
func TestDedupDurableResultPersistedOnce(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	s := New(Config{Workers: 1, Store: st})
	defer s.Close()

	// Occupy the worker so both members are registered before either runs.
	blocker, err := s.Submit(durableSpec(99, 4000))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateRunning)

	lead, err := s.Submit(durableSpec(5, 200))
	if err != nil {
		t.Fatal(err)
	}
	fol, err := s.Submit(durableSpec(5, 200))
	if err != nil {
		t.Fatal(err)
	}
	if fol.DedupOf != lead.ID {
		t.Fatalf("durable follower DedupOf = %q, want %s", fol.DedupOf, lead.ID)
	}
	waitTerminal(t, s, blocker.ID)
	if j := waitTerminal(t, s, lead.ID); j.State != StateDone {
		t.Fatalf("leader ended %q (err %q)", j.State, j.Error)
	}
	if j := waitTerminal(t, s, fol.ID); j.State != StateDone {
		t.Fatalf("follower ended %q (err %q)", j.State, j.Error)
	}

	lv, ok := scanJob(t, st, lead.ID)
	if !ok || lv.State != store.StateDone || len(lv.Result) == 0 {
		t.Fatalf("leader log view %+v, want done with result payload", lv)
	}
	fv, ok := scanJob(t, st, fol.ID)
	if !ok || fv.State != store.StateDone {
		t.Fatalf("follower log view %+v, want done", fv)
	}
	if len(fv.Result) != 0 {
		t.Fatal("follower's done record duplicates the result payload")
	}
	if len(fv.Spec) == 0 {
		t.Fatal("follower's queued record lost its spec (recovery needs it)")
	}
	if _, ok := st.ResultByHash(lv.Hash); !ok {
		t.Fatal("shared hash does not resolve to the persisted result")
	}
}

// TestDedupInterruptedRecoversAsOneExecution: a deduped pair interrupted
// at graceful shutdown recovers as one execution again: the leader's,
// entered in the dedup index, with the follower joined to it. Both resume
// from the hash's one checkpoint, which is valid for both because equal
// hashes are equal canonical specs, seed included.
func TestDedupInterruptedRecoversAsOneExecution(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	s1 := New(Config{Workers: 1, CheckpointEvery: 250, Store: st1})

	lead, err := s1.Submit(durableSpec(5, 400000))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, lead.ID, StateRunning)
	fol, err := s1.Submit(durableSpec(5, 400000))
	if err != nil {
		t.Fatal(err)
	}
	if fol.DedupOf != lead.ID {
		t.Fatalf("follower DedupOf = %q, want %s", fol.DedupOf, lead.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{lead.ID, fol.ID} {
		if j, _ := s1.Get(id); j.State != StateInterrupted {
			t.Fatalf("job %s is %q after shutdown, want interrupted", id, j.State)
		}
	}
	st1.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := New(Config{Workers: 2, CheckpointEvery: 250, Store: st2})
	defer s2.Close()
	defer s2.CancelAll() // don't wait out the 400k rounds
	n, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("recovered %d jobs, want 2 (leader and follower)", n)
	}
	if st := s2.Stats(); st.Recovered != 2 || st.DedupCoalesced != 0 {
		t.Fatalf("Recovered = %d, DedupCoalesced = %d; want 2 and 0 (recovered jobs count as recovered)", st.Recovered, st.DedupCoalesced)
	}
	if j, _ := s2.Get(lead.ID); j.DedupOf != "" {
		t.Fatalf("recovered leader %s joined %s", lead.ID, j.DedupOf)
	}
	if j, _ := s2.Get(fol.ID); j.DedupOf != lead.ID {
		t.Fatalf("recovered follower %s has DedupOf %q, want the leader %s", fol.ID, j.DedupOf, lead.ID)
	}
	// A later identical submission joins the recovered execution too.
	again, err := s2.Submit(durableSpec(5, 400000))
	if err != nil {
		t.Fatal(err)
	}
	if again.DedupOf != lead.ID {
		t.Fatalf("post-restart submission has DedupOf %q, want the recovered leader %s", again.DedupOf, lead.ID)
	}
}

// TestBatchCompilesRepeatedMemberOnce: a batch of 64 identical n=10⁴
// specs compiles its spec once, not once per member, so SubmitBatch
// allocates at most two compiles' worth: one compile, plus the members'
// entries and the batch snapshot. The compile the batch is measured
// against starts from an empty encoder scratch pool, so the bound holds
// whether or not the pool keeps its buffer between compiles (the race
// detector drops pooled items at random). A blocker holds the only
// worker, so no run allocates while the batch is admitted.
func TestBatchCompilesRepeatedMemberOnce(t *testing.T) {
	g := newGate()
	s := New(Config{Workers: 1, Intercept: g.intercept})
	defer s.Close()
	blocker, err := s.Submit(sweepSpec(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	g.waitHeld(t, 1)

	spec := job.Spec{Graph: job.GraphSpec{Builder: "ring", N: 10_000}, Kind: "bc",
		Function: "max", MaxRounds: 2, Patience: 2}
	allocated := func(f func()) uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	// Two collections empty every sync.Pool.
	runtime.GC()
	runtime.GC()
	one := allocated(func() {
		if _, err := job.Compile(spec); err != nil {
			t.Fatal(err)
		}
	})
	specs := make([]job.Spec, MaxBatchSize)
	for i := range specs {
		specs[i] = spec
	}
	var b *Batch
	batch := allocated(func() {
		if b, err = s.SubmitBatch(specs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one compile allocates %d B; the 64-member batch %d B", one, batch)
	// Not Fatal: the held attempt must still be released below.
	if batch > 2*one {
		t.Errorf("SubmitBatch of %d identical specs allocated %d B, want ≤ %d B (two compiles of %d B)", len(specs), batch, 2*one, one)
	}
	g.release(2)
	for _, id := range []string{blocker.ID, b.Jobs[0].ID, b.Jobs[len(b.Jobs)-1].ID} {
		if got := waitTerminal(t, s, id); got.State != StateDone {
			t.Fatalf("job %s ended %q (err %q)", id, got.State, got.Error)
		}
	}
}

// TestBatchNegativeZeroMemberKeepsItsHash: a member that differs from the
// one before it only in the sign of a zero input is its own job, since -0
// and 0 encode, and so hash, apart. Each member's hash and spec bytes are
// the ones job.Compile gives it when compiled alone.
func TestBatchNegativeZeroMemberKeepsItsHash(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	negZero := math.Copysign(0, -1)
	ring := func(kind string, values ...float64) job.Spec {
		return job.Spec{Graph: job.GraphSpec{Builder: "bidiring", N: len(values)}, Kind: kind,
			Function: "max", MaxRounds: 4, Patience: 4, Values: values}
	}
	specs := []job.Spec{
		ring("bc", negZero, 2, 3), ring("bc", 0, 2, 3),
		// onebit's default inputs are 0,1,0,1: the second member is them
		// written out, the first is not.
		ring("onebit", negZero, 1, 0, 1), ring("onebit", 0, 1, 0, 1),
	}
	b, err := s.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		c, err := job.Compile(sp)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Jobs[i]; got.Hash != c.Hash || !bytes.Equal(got.Spec, c.SpecJSON) {
			t.Errorf("member %d (values %v) admitted as hash %s spec %s, want %s spec %s",
				i, sp.Values, got.Hash, got.Spec, c.Hash, c.SpecJSON)
		}
	}
	for i := 0; i < len(specs); i += 2 {
		if b.Jobs[i].Hash == b.Jobs[i+1].Hash {
			t.Errorf("members %d and %d share hash %s although one input is -0 and the other 0", i, i+1, b.Jobs[i].Hash)
		}
	}
	for _, j := range b.Jobs {
		if got := waitTerminal(t, s, j.ID); got.State != StateDone {
			t.Fatalf("job %s ended %q (err %q)", j.ID, got.State, got.Error)
		}
	}
}
