package service

import (
	"encoding/json"
	"fmt"
	"math"
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
		{JobID: "j000001", State: StateRunning, Round: 1, Outputs: []job.F64{1, 2.5, job.F64(math.NaN())}, MaxErr: 1.5},
		{JobID: "j000001", State: StateRunning, Outputs: []job.F64{}, MaxErr: job.F64(math.Inf(1))},
		{JobID: "j000001", State: StateDone, Round: 9, Outputs: []job.F64{-0.5, 1e21}, Done: true},
		{JobID: "j000002", State: StateFailed, Done: true, Error: "agent <3> & \"friends\"\nsaid: héllo ☃  "},
		{},
	}
	for i, ev := range events {
		if got, want := string(ev.AppendJSON(nil)), marshalString(t, ev); got != want {
			t.Fatalf("event %d: AppendJSON = %s, want %s", i, got, want)
		}
	}
}

// TestAppendJSONWithoutEncodedBytes covers values built outside the
// service, which carry no encodings to copy, and a snapshot whose Result
// the caller replaced.
func TestAppendJSONWithoutEncodedBytes(t *testing.T) {
	started := time.Date(2024, 6, 17, 9, 30, 0, 123456789, time.UTC)
	res := &job.Result{Outputs: []job.F64{1, job.F64(math.Inf(-1))}, Rounds: 3, Expected: 2}
	jobs := []*Job{
		{ID: "j1", Hash: "abc", Spec: ringSpec(1), State: StateQueued, Submitted: started},
		{ID: "j2", Hash: "abc", Spec: ringSpec(2), State: StateDone, CacheHit: true, DedupOf: "j1", Result: res,
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

	s := New(Config{Workers: 1})
	defer s.Close()
	sub, err := s.Submit(ringSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	j := waitState(t, s, sub.ID, StateDone)
	j.Result = res
	got, err := j.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := marshalString(t, j); string(got) != want {
		t.Fatalf("snapshot with a replaced Result: AppendJSON = %s, want %s", got, want)
	}
	if ev := TerminalProgress(j); ev.outputsJSON != nil {
		t.Fatalf("terminal event of a replaced Result copies the old encoding: %s", ev.outputsJSON)
	}
}

// TestEncodedOnceAndShared checks that a done job's spec and result bytes
// are the ones compile and settle made, shared rather than copied: the
// LRU, every member of the execution and the terminal event's outputs
// point at the same encoding.
func TestEncodedOnceAndShared(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	b, err := s.SubmitBatch([]job.Spec{ringSpec(4), ringSpec(4)})
	if err != nil {
		t.Fatal(err)
	}
	a := waitState(t, s, b.Jobs[0].ID, StateDone)
	d := waitState(t, s, b.Jobs[1].ID, StateDone)
	if d.DedupOf != a.ID {
		t.Fatalf("second member did not join the first: %+v", d)
	}
	hit, err := s.Submit(ringSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("resubmission was not a cache hit")
	}
	enc := a.encoded.json
	for _, j := range []*Job{d, hit} {
		if &j.encoded.json[0] != &enc[0] {
			t.Fatalf("job %s carries its own result encoding", j.ID)
		}
	}
	ev := TerminalProgress(a)
	if len(ev.outputsJSON) == 0 || &ev.outputsJSON[0] != &enc[len(`{"outputs":`)] {
		t.Fatal("terminal event's outputs are not a sub-slice of the result's encoding")
	}
	if string(a.specJSON) != marshalString(t, a.Spec) {
		t.Fatalf("spec bytes %s differ from the spec's encoding", a.specJSON)
	}
}

// BenchmarkRenderDoneJob renders the two bodies every member of a sweep
// costs once done — its GET body and its terminal stream line — at n=10
// and n=10⁴. Both copy encodings made once, so allocs/op must not grow
// with n (a CI gate).
func BenchmarkRenderDoneJob(b *testing.B) {
	for _, n := range []int{10, 10_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := New(Config{Workers: 1})
			defer s.Close()
			sub, err := s.Submit(job.Spec{Graph: job.GraphSpec{Builder: "ring", N: n}, Kind: "bc",
				Function: "max", MaxRounds: 2, Patience: 2})
			if err != nil {
				b.Fatal(err)
			}
			j := waitState(b, s, sub.ID, StateDone)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body, err := j.AppendJSON(nil)
				if err != nil {
					b.Fatal(err)
				}
				renderSink = append(body, '\n')
				renderSink = append(TerminalProgress(j).AppendJSON(nil), '\n')
			}
		})
	}
}

var renderSink []byte
