package service

// Service-level proof of the sweep fast path. A same-graph seed sweep
// must cost exactly one topology build (counter-asserted), identical
// specs must coalesce into one execution, results must be bit-identical
// with the fast path on or off, durable dedup must persist the result
// payload exactly once and recover followers as independent jobs, and
// snapshots pinned by running jobs must survive eviction pressure.

import (
	"context"
	"fmt"
	"testing"
	"time"

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
// every other member hits or coalesces on the shared cache, and the
// worker observes near-perfect fingerprint affinity.
func TestSweepSingleTopologyBuild(t *testing.T) {
	const members = 48
	s := New(Config{Workers: 1, CacheSize: -1})
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
	// One worker, fingerprint-grouped queue: every job after the first is
	// an affinity hit.
	if st.AffinityHits != members-1 || st.AffinityMisses != 1 {
		t.Fatalf("affinity hits/misses = %d/%d, want %d/1", st.AffinityHits, st.AffinityMisses, members-1)
	}
	if st.Completed != members {
		t.Fatalf("Completed = %d, want %d", st.Completed, members)
	}
}

// TestSweepResultsIdenticalFastPathOnOff is the golden gate: the shared
// snapshot, dedup, and affinity layers are pure plumbing — every member
// of a mixed sweep (seed axis plus duplicates) must produce bit-identical
// outputs with the whole fast path on and off.
func TestSweepResultsIdenticalFastPathOnOff(t *testing.T) {
	specs := make([]job.Spec, 0, 24)
	for seed := int64(0); seed < 8; seed++ {
		sp := sweepSpec(48, seed)
		specs = append(specs, sp, sp) // duplicate: dedup fodder on the fast path
		sp.Graph.N = 32               // second fingerprint in the mix
		specs = append(specs, sp)
	}

	run := func(cfg Config) map[string]*job.Result {
		s := New(cfg)
		defer s.Close()
		b, err := s.SubmitBatch(specs)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]*job.Result)
		for i, j := range b.Jobs {
			got := waitTerminal(t, s, j.ID)
			if got.State != StateDone {
				t.Fatalf("specs[%d] ended %q (err %q)", i, got.State, got.Error)
			}
			out[fmt.Sprintf("%d/%s", i, j.Hash)] = got.Result
		}
		return out
	}

	fast := run(Config{Workers: 2})
	slow := run(Config{Workers: 2, NoDedup: true, TopoCacheBytes: -1, CacheSize: -1})
	if len(fast) != len(slow) {
		t.Fatalf("job sets differ: %d vs %d", len(fast), len(slow))
	}
	for k, fr := range fast {
		sr, ok := slow[k]
		if !ok {
			t.Fatalf("job %s missing from slow-path run", k)
		}
		if fr.Rounds != sr.Rounds || fr.MaxErr != sr.MaxErr || len(fr.Outputs) != len(sr.Outputs) {
			t.Fatalf("job %s diverges: fast %+v slow %+v", k, fr, sr)
		}
		for i := range fr.Outputs {
			if fr.Outputs[i] != sr.Outputs[i] {
				t.Fatalf("job %s output %d: fast %v slow %v", k, i, fr.Outputs[i], sr.Outputs[i])
			}
		}
	}
}

// TestSweepEvictionSparesRunningJobs drives the byte-budget eviction
// through the service: with a budget too small for even one snapshot,
// entries pinned by in-flight jobs survive (over budget) and are swept
// once their jobs finish.
func TestSweepEvictionSparesRunningJobs(t *testing.T) {
	g := newGate()
	s := New(Config{Workers: 2, Intercept: g.intercept, TopoCacheBytes: 1, CacheSize: -1})
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

	lv, ok := st.Job(lead.ID)
	if !ok || lv.State != store.StateDone || len(lv.Result) == 0 {
		t.Fatalf("leader log view %+v, want done with result payload", lv)
	}
	fv, ok := st.Job(fol.ID)
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

// TestDedupInterruptedRecoversIndependently: a deduped pair interrupted
// at graceful shutdown recovers as two independent executions — recovery
// re-attaches nothing.
func TestDedupInterruptedRecoversIndependently(t *testing.T) {
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
	n, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("recovered %d jobs, want 2 (leader and follower, independently)", n)
	}
	if s2.Stats().DedupCoalesced != 0 {
		t.Fatal("recovery re-attached a follower")
	}
	for _, id := range []string{lead.ID, fol.ID} {
		j, err := s2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.DedupOf != "" {
			t.Fatalf("recovered job %s still linked to %s", id, j.DedupOf)
		}
		// Don't wait out the 400k rounds: independent re-enqueue is what
		// this test proves.
		s2.Cancel(id)
		waitTerminal(t, s2, id)
	}
}
