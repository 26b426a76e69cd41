package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"anonnet/internal/job"
	"anonnet/internal/service"
	"anonnet/internal/store"
)

// wireSpec is a two-round max flood on an n-ring with the default inputs.
func wireSpec(n int, seed int64) string {
	return fmt.Sprintf(`{"graph":{"builder":"ring","n":%d},"kind":"bc","function":"max","seed":%d,"max_rounds":2,"patience":2}`, n, seed)
}

// checkKeptSpec fails if a body carries a values array, and decodes each
// of the given jobs' spec back to that job's hash.
func checkKeptSpec(t *testing.T, what string, body []byte, jobs ...service.Job) {
	t.Helper()
	if bytes.Contains(body, []byte(`"values"`)) {
		t.Fatalf("%s carries the default inputs: %.300s", what, body)
	}
	for _, j := range jobs {
		spec, err := job.Decode(j.Spec)
		if err != nil {
			t.Fatalf("%s: job %s spec %s: %v", what, j.ID, j.Spec, err)
		}
		if h, err := spec.Hash(); err != nil || h != j.Hash {
			t.Fatalf("%s: job %s spec %s hashes to %s (%v), want %s", what, j.ID, j.Spec, h, err, j.Hash)
		}
	}
}

// TestDefaultInputSpecOmitsValues: the POST, GET, list and stream bodies
// of a job on the default inputs carry no values, nor does its log
// record, and the spec they carry decodes back to the job's hash.
func TestDefaultInputSpecOmitsValues(t *testing.T) {
	st := openStore(t, t.TempDir())
	ts, _ := newTestServer(t, service.Config{Workers: 1, Store: st})
	code, body := httpBody(t, http.MethodPost, ts.URL+"/v1/jobs", wireSpec(64, 1))
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs → %d: %s", code, body)
	}
	var posted service.Job
	if err := json.Unmarshal(body, &posted); err != nil {
		t.Fatal(err)
	}
	checkKeptSpec(t, "POST /v1/jobs", body, posted)

	done := waitDone(t, ts, posted.ID)
	if done.State != service.StateDone {
		t.Fatalf("job %s ended %s: %s", done.ID, done.State, done.Error)
	}
	_, body = httpBody(t, http.MethodGet, ts.URL+"/v1/jobs/"+posted.ID, "")
	checkKeptSpec(t, "GET /v1/jobs/"+posted.ID, body, done)

	_, body = httpBody(t, http.MethodGet, ts.URL+"/v1/jobs", "")
	var list struct{ Jobs []service.Job }
	if err := json.Unmarshal(body, &list); err != nil || len(list.Jobs) != 1 {
		t.Fatalf("GET /v1/jobs: %d jobs (%v)", len(list.Jobs), err)
	}
	checkKeptSpec(t, "GET /v1/jobs", body, list.Jobs...)

	_, body = httpBody(t, http.MethodGet, ts.URL+"/v1/jobs/"+posted.ID+"/stream", "")
	if !strings.Contains(string(body), `"done":true`) {
		t.Fatalf("stream of %s ended without its terminal line: %s", posted.ID, body)
	}
	checkKeptSpec(t, "stream of "+posted.ID, body)

	specs := 0
	if err := st.Scan(func(rec store.Record) error {
		if len(rec.Spec) > 0 {
			specs++
			checkKeptSpec(t, "log record", rec.Spec, service.Job{ID: rec.JobID, Hash: rec.Hash, Spec: rec.Spec})
		}
		return nil
	}); err != nil || specs != 1 {
		t.Fatalf("the log holds %d specs (%v), want 1", specs, err)
	}
}

// TestBatchWireSize is the wire-size gate: the POST /v1/batch body of 64
// n=10⁴ default-input members carries no member's inputs, so it stays
// within 64 KB (each member's spec carried its 10⁴ inputs before, 3.1 MB
// in all), and a done member's GET body is its result plus at most 2 KB.
func TestBatchWireSize(t *testing.T) {
	ts, svc := newTestServer(t, service.Config{Workers: 1})
	members := make([]string, service.MaxBatchSize)
	for i := range members {
		members[i] = wireSpec(10_000, 7)
	}
	code, body := httpBody(t, http.MethodPost, ts.URL+"/v1/batch", `{"specs":[`+strings.Join(members, ",")+`]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/batch → %d: %.300s", code, body)
	}
	var b service.Batch
	if err := json.Unmarshal(body, &b); err != nil || len(b.Jobs) != len(members) {
		t.Fatalf("POST /v1/batch: %d members (%v)", len(b.Jobs), err)
	}
	t.Logf("POST /v1/batch body: %d B for %d members", len(body), len(b.Jobs))
	if len(body) > 64<<10 {
		t.Fatalf("POST /v1/batch body is %d B, want ≤ %d B", len(body), 64<<10)
	}
	for _, m := range b.Jobs {
		awaitState(t, svc, m.ID, service.StateDone)
		_, body := httpBody(t, http.MethodGet, ts.URL+"/v1/jobs/"+m.ID, "")
		j, err := svc.Get(m.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) > len(j.Result)+2<<10 {
			t.Fatalf("GET /v1/jobs/%s body is %d B for a %d B result, want ≤ result + %d B", m.ID, len(body), len(j.Result), 2<<10)
		}
	}
}
