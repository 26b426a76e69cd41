package service

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime/debug"
	"testing"
	"time"

	"anonnet/internal/job"
)

func marshalString(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestProgressAppendJSONMatchesEncodingJSON covers the stream line's
// omitempty fields: nil, empty and non-empty outputs, a zero round, and an
// error text that needs escaping.
func TestProgressAppendJSONMatchesEncodingJSON(t *testing.T) {
	events := []Progress{
		{JobID: "j000001", State: StateRunning, Round: 1, Outputs: job.AppendVector(nil, []job.F64{1, 2.5, job.F64(math.NaN())}), MaxErr: 1.5},
		{JobID: "j000001", State: StateRunning, Outputs: json.RawMessage{}, MaxErr: job.F64(math.Inf(1))},
		{JobID: "j000001", State: StateDone, Round: 9, Outputs: job.AppendVector(nil, []job.F64{-0.5, 1e21}), Done: true},
		{JobID: "j000002", State: StateFailed, Done: true, Error: "agent <3> & \"friends\"\nsaid: héllo ☃  "},
		{},
	}
	for i, ev := range events {
		if got, want := string(ev.AppendJSON(nil)), marshalString(t, ev); got != want {
			t.Fatalf("event %d: AppendJSON = %s, want %s", i, got, want)
		}
	}
}

// TestAppendJSONMatchesEncodingJSON covers jobs and batches built outside
// the service: queued, done with a result, failed with an error that needs
// escaping, and a nil member.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	started := time.Date(2024, 6, 17, 9, 30, 0, 123456789, time.UTC)
	res := job.AppendResult(nil, &job.Result{Outputs: []job.F64{1, job.F64(math.Inf(-1))}, Rounds: 3, Expected: 2})
	jobs := []*Job{
		{ID: "j1", Hash: "abc", Spec: json.RawMessage(marshalString(t, ringSpec(1))), State: StateQueued, Submitted: started},
		{ID: "j2", Hash: "abc", Spec: json.RawMessage(marshalString(t, ringSpec(2))), State: StateDone, CacheHit: true, DedupOf: "j1", Result: res,
			Submitted: started, Started: &started, Finished: &started},
		{ID: "j3", State: StateFailed, Error: "<&>", Submitted: started.In(time.FixedZone("x", 3600))},
	}
	for i, j := range jobs {
		got, err := j.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalString(t, j); string(got) != want {
			t.Fatalf("job %d: AppendJSON = %s, want %s", i, got, want)
		}
	}
	for _, b := range []*Batch{
		{ID: "b1", Jobs: jobs, Done: 1, Failed: 1, CacheHits: 1, Deduped: 1},
		{ID: "b2", Jobs: []*Job{nil}},
		{ID: "b3"},
	} {
		got, err := b.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalString(t, b); string(got) != want {
			t.Fatalf("batch %s: AppendJSON = %s, want %s", b.ID, got, want)
		}
	}
}

// TestEncodedOnceAndShared checks that a job's spec, result and outputs
// bytes are the ones compile, settle and the round observer made, shared
// rather than copied: two watchers of one execution receive each running
// event's outputs in one backing array; the result index and every member
// of the execution carry one result encoding, and the terminal event's
// outputs are a sub-slice of it; and a member that joined the execution
// carries the creator's spec encoding.
func TestEncodedOnceAndShared(t *testing.T) {
	g := newGate()
	s := New(Config{Workers: 1, ProgressEvery: 1, Intercept: g.intercept})
	defer s.Close()
	b, err := s.SubmitBatch([]job.Spec{ringSpec(4), ringSpec(4)})
	if err != nil {
		t.Fatal(err)
	}
	if b.Jobs[1].DedupOf != b.Jobs[0].ID {
		t.Fatalf("second member did not join the first: %+v", b.Jobs[1])
	}
	// Both members are watched before their execution starts, so each
	// stream's first event is round 1.
	var watch [2]<-chan Progress
	for i, m := range b.Jobs {
		ch, stop, err := s.Watch(m.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		watch[i] = ch
	}
	g.release(1)
	r0, r1 := <-watch[0], <-watch[1]
	if r0.State != StateRunning || r0.Round != 1 || r1.Round != 1 || len(r0.Outputs) == 0 {
		t.Fatalf("first events: %s round %d, %s round %d; want round 1 running with outputs", r0.State, r0.Round, r1.State, r1.Round)
	}
	if &r0.Outputs[0] != &r1.Outputs[0] {
		t.Fatal("watchers of one execution receive their own copies of a round's outputs")
	}
	a := waitState(t, s, b.Jobs[0].ID, StateDone)
	d := waitState(t, s, b.Jobs[1].ID, StateDone)
	hit, err := s.Submit(ringSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("resubmission was not a cache hit")
	}
	enc := a.Result
	for _, j := range []*Job{d, hit} {
		if &j.Result[0] != &enc[0] {
			t.Fatalf("job %s carries its own result encoding", j.ID)
		}
	}
	ev := TerminalProgress(a)
	if len(ev.Outputs) == 0 || &ev.Outputs[0] != &enc[len(`{"outputs":`)] {
		t.Fatal("terminal event's outputs are not a sub-slice of the result's encoding")
	}
	if &d.Spec[0] != &a.Spec[0] {
		t.Fatal("the joining member carries its own spec encoding")
	}
	c, err := job.Compile(ringSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Spec) != string(c.SpecJSON) {
		t.Fatalf("spec bytes %s differ from the canonical encoding %s", a.Spec, c.SpecJSON)
	}
}

// BenchmarkRenderDoneJob renders the bodies every member of a sweep costs
// once done — its GET body and its terminal stream line — and the body of
// a done 64-member sweep, at n=10 and n=10⁴. All of them copy encodings
// made once, so allocs/op must not grow with n (a CI gate).
func BenchmarkRenderDoneJob(b *testing.B) {
	for _, n := range []int{10, 10_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := New(Config{Workers: 1})
			defer s.Close()
			spec := job.Spec{Graph: job.GraphSpec{Builder: "ring", N: n}, Kind: "bc",
				Function: "max", MaxRounds: 2, Patience: 2}
			sub, err := s.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			j := waitState(b, s, sub.ID, StateDone)
			specs := make([]job.Spec, 64)
			for i := range specs {
				specs[i] = spec
			}
			sweep, err := s.SubmitBatch(specs)
			if err != nil {
				b.Fatal(err)
			}
			if sweep.Done != 64 {
				b.Fatalf("sweep of cache hits has %d of 64 members done", sweep.Done)
			}
			// Each batch render at n=10⁴ leaves 6 MB of garbage. Collect
			// seldom, so that allocations the runtime makes after each
			// collection do not count toward the renders' allocs/op.
			defer debug.SetGCPercent(debug.SetGCPercent(1000))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body, err := j.AppendJSON(nil)
				if err != nil {
					b.Fatal(err)
				}
				renderSink = append(body, '\n')
				renderSink = append(TerminalProgress(j).AppendJSON(nil), '\n')
				if body, err = sweep.AppendJSON(nil); err != nil {
					b.Fatal(err)
				}
				renderSink = append(body, '\n')
			}
		})
	}
}

var renderSink []byte
