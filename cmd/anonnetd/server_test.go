package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"anonnet/internal/job"
	"anonnet/internal/service"
)

func newTestServer(t *testing.T, cfg service.Config) (*httptest.Server, *service.Service) {
	t.Helper()
	svc := service.New(cfg)
	ts := httptest.NewServer(newMux(svc, muxOptions{}))
	t.Cleanup(func() {
		ts.Close()
		svc.CancelAll()
		svc.Close()
	})
	return ts, svc
}

func postJob(t *testing.T, ts *httptest.Server, spec string) (service.Job, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j service.Job
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
	} else {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Logf("POST /v1/jobs → %d: %s", resp.StatusCode, buf.String())
	}
	return j, resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) service.Job {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s → %d", id, resp.StatusCode)
	}
	var j service.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

func waitDone(t *testing.T, ts *httptest.Server, id string) service.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j := getJob(t, ts, id)
		if j.State.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return service.Job{}
}

// decodeResult reads a job's Result bytes back into a job.Result.
func decodeResult(t *testing.T, raw json.RawMessage) *job.Result {
	t.Helper()
	var res job.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result %s: %v", raw, err)
	}
	return &res
}

// pushSumRingSpec is the acceptance scenario: Push-Sum (outdegree-aware,
// Table 2 via dynamic=true) computing the average on a 16-node ring, with
// the known bound enabling the §5.4 exact rounding. The true average of
// 1..16 is 8.5.
const pushSumRingSpec = `{
  "graph": {"builder": "ring", "n": 16},
  "kind": "od",
  "dynamic": true,
  "row": "bound",
  "bound_n": 16,
  "function": "average",
  "seed": 1
}`

func TestEndToEndPushSumRing(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 2})

	j, code := postJob(t, ts, pushSumRingSpec)
	if code != http.StatusAccepted {
		t.Fatalf("first submission → %d, want 202", code)
	}
	done := waitDone(t, ts, j.ID)
	if done.State != service.StateDone || done.Result == nil {
		t.Fatalf("job finished %q: %+v", done.State, done.Error)
	}
	for i, o := range decodeResult(t, done.Result).Outputs {
		if math.Abs(float64(o)-8.5) > 1e-9 {
			t.Fatalf("output %d = %v, want 8.5", i, o)
		}
	}

	// The identical spec (different spelling) is served from the cache.
	j2, code := postJob(t, ts, strings.Replace(pushSumRingSpec, `"od"`, `"outdegree"`, 1))
	if code != http.StatusOK {
		t.Fatalf("second submission → %d, want 200 (cache hit)", code)
	}
	if !j2.CacheHit || j2.State != service.StateDone {
		t.Fatalf("second submission not a cache hit: %+v", j2)
	}
	if j2.Hash != done.Hash {
		t.Fatalf("hashes differ: %s vs %s", j2.Hash, done.Hash)
	}

	var stats service.Stats
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 1 {
		t.Fatalf("cache_hits = %d, want 1 (stats %+v)", stats.CacheHits, stats)
	}
}

func TestEndToEndStream(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 2})
	j, code := postJob(t, ts, pushSumRingSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submission → %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	lines, sawDone := 0, false
	for sc.Scan() {
		var ev service.Progress
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines++
		if ev.Done {
			sawDone = true
		}
	}
	if lines == 0 || !sawDone {
		t.Fatalf("stream had %d lines, done=%v", lines, sawDone)
	}
}

func TestEndToEndCancel(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})
	long := `{
	  "graph": {"builder": "randomdyn", "n": 8},
	  "kind": "od", "function": "average",
	  "max_rounds": 500000, "patience": 500000, "seed": 7
	}`
	j, code := postJob(t, ts, long)
	if code != http.StatusAccepted {
		t.Fatalf("submission → %d", code)
	}
	// Wait until it is actually running, then cancel.
	deadline := time.Now().Add(10 * time.Second)
	for getJob(t, ts, j.ID).State != service.StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE → %d", resp.StatusCode)
	}
	got := waitDone(t, ts, j.ID)
	if got.State != service.StateCanceled {
		t.Fatalf("state after cancel = %q", got.State)
	}
}

func TestEndToEndErrors(t *testing.T) {
	ts, svc := newTestServer(t, service.Config{Workers: 1})
	const ring = `{"graph":{"builder":"ring","n":4},"kind":"od","function":"average"}`
	cases := []struct {
		path string
		body string
		want int
		code string
	}{
		{"/v1/jobs", `not json`, http.StatusBadRequest, "invalid_spec"},
		{"/v1/jobs", `{"graph":{"builder":"klein","n":4},"kind":"od","function":"average"}`, http.StatusBadRequest, "invalid_spec"},
		{"/v1/jobs", `{"graph":{"builder":"ring","n":8},"kind":"od","function":"sum"}`, http.StatusUnprocessableEntity, "table_forbidden"},
		{"/v1/jobs", `{"schema_version":7,"graph":{"builder":"ring","n":8},"kind":"od","function":"average"}`, http.StatusBadRequest, "invalid_spec"},
		// Trailing data after the object, a stray closer included: no
		// part of the body is admitted.
		{"/v1/jobs", ring + ring, http.StatusBadRequest, "invalid_spec"},
		{"/v1/jobs", ring + `]garbage`, http.StatusBadRequest, "invalid_spec"},
		{"/v1/jobs", ring + `}`, http.StatusBadRequest, "invalid_spec"},
		{"/v1/batch", `{"specs":[` + ring + `]} garbage`, http.StatusBadRequest, "invalid_batch"},
		{"/v1/batch", `{"specs":[` + ring + `]}{"specs":[` + ring + `]}`, http.StatusBadRequest, "invalid_batch"},
		{"/v1/batch", `{"specs":[` + ring + `]}]garbage`, http.StatusBadRequest, "invalid_batch"},
		{"/v1/batch", `{"specs":[` + ring + `]}}`, http.StatusBadRequest, "invalid_batch"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var p struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			Detail  string `json:"detail"`
		}
		decErr := json.NewDecoder(resp.Body).Decode(&p)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("POST %s %q → %d, want %d", tc.path, tc.body, resp.StatusCode, tc.want)
		}
		if decErr != nil || p.Code != tc.code || p.Message == "" {
			t.Fatalf("POST %s %q → problem %+v (decode %v), want code %q", tc.path, tc.body, p, decErr, tc.code)
		}
		if tc.code == "table_forbidden" && p.Detail == "" {
			t.Fatal("422 problem lacks the dispatcher explanation in detail")
		}
	}
	if n := svc.Stats().Submitted; n != 0 {
		t.Fatalf("rejected requests admitted %d jobs", n)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/j999999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job → %d", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz → %d", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/debug/vars"); err != nil {
		t.Fatal(err)
	} else {
		var vars map[string]any
		err := json.NewDecoder(resp.Body).Decode(&vars)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("debug/vars → %d (%v)", resp.StatusCode, err)
		}
		if _, ok := vars["memstats"]; !ok {
			t.Fatalf("expvar map missing memstats key: %v", fmt.Sprint(vars)[:min(200, len(fmt.Sprint(vars)))])
		}
	}
}

// TestEndToEndBatch covers the sweep endpoint: template×grid expansion,
// aggregate polling, all-or-nothing rejection, and the sharded engine
// running inside the pool.
func TestEndToEndBatch(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 2})
	body := `{
	  "template": {
	    "schema_version": 2,
	    "graph": {"builder": "ring", "n": 8},
	    "kind": "od", "function": "average", "engine": "shard"
	  },
	  "grid": {"n": [8, 12], "seeds": [1, 2, 3]}
	}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var b service.Batch
	decErr := json.NewDecoder(resp.Body).Decode(&b)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || decErr != nil {
		t.Fatalf("POST /v1/batch → %d (%v)", resp.StatusCode, decErr)
	}
	if len(b.Jobs) != 6 {
		t.Fatalf("grid expanded to %d jobs, want 6 (2 sizes × 3 seeds)", len(b.Jobs))
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/batch/" + b.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got service.Batch
		decErr := json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || decErr != nil {
			t.Fatalf("GET /v1/batch/%s → %d (%v)", b.ID, resp.StatusCode, decErr)
		}
		if got.Done == len(got.Jobs) {
			if got.Failed != 0 {
				t.Fatalf("batch failed: %+v", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never finished: %d/%d", got.Done, len(got.Jobs))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// One bad member rejects the whole batch.
	bad := `{"specs": [
	  {"graph": {"builder": "ring", "n": 8}, "kind": "od", "function": "average"},
	  {"graph": {"builder": "klein", "n": 8}, "kind": "od", "function": "average"}
	]}`
	resp, err = http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Code string `json:"code"`
	}
	decErr = json.NewDecoder(resp.Body).Decode(&p)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || decErr != nil || p.Code != "invalid_spec" {
		t.Fatalf("bad batch → %d code %q (%v)", resp.StatusCode, p.Code, decErr)
	}
	if resp, err := http.Get(ts.URL + "/v1/batch/b9999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown batch → %d", resp.StatusCode)
		}
	}
}

// TestBatchModelAxis covers the sweep grid's model axis: the registry's
// canonical names are sweepable alongside sizes and seeds, the expansion
// crosses them, and a one-bit member runs to completion next to the
// broadcast members.
func TestBatchModelAxis(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 2})
	body := `{
	  "template": {
	    "graph": {"builder": "ring", "n": 6},
	    "kind": "bc", "function": "max"
	  },
	  "grid": {"models": ["bc", "onebit"], "seeds": [1, 2]}
	}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var b service.Batch
	decErr := json.NewDecoder(resp.Body).Decode(&b)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || decErr != nil {
		t.Fatalf("POST /v1/batch → %d (%v)", resp.StatusCode, decErr)
	}
	if len(b.Jobs) != 4 {
		t.Fatalf("grid expanded to %d jobs, want 4 (2 models × 2 seeds)", len(b.Jobs))
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/batch/" + b.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got service.Batch
		decErr := json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || decErr != nil {
			t.Fatalf("GET /v1/batch/%s → %d (%v)", b.ID, resp.StatusCode, decErr)
		}
		if got.Done == len(got.Jobs) {
			if got.Failed != 0 {
				t.Fatalf("model-axis batch failed: %+v", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("model-axis batch never finished: %d/%d", got.Done, len(got.Jobs))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// An unknown model in the axis rejects the whole batch up front.
	bad := `{
	  "template": {"graph": {"builder": "ring", "n": 6}, "kind": "bc", "function": "max"},
	  "grid": {"models": ["bc", "telepathy"]}
	}`
	resp, err = http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Code   string `json:"code"`
		Detail string `json:"detail"`
	}
	decErr = json.NewDecoder(resp.Body).Decode(&p)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || decErr != nil || p.Code != "invalid_spec" {
		t.Fatalf("unknown model axis → %d code %q (%v)", resp.StatusCode, p.Code, decErr)
	}
}

// TestUnversionedAliases pins the pre-versioning paths to 301 redirects
// onto /v1/, query string preserved.
func TestUnversionedAliases(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	cases := []struct{ path, want string }{
		{"/jobs", "/v1/jobs"},
		{"/jobs/j000001", "/v1/jobs/j000001"},
		{"/jobs/j000001/stream", "/v1/jobs/j000001/stream"},
		{"/stats", "/v1/stats"},
		{"/jobs?x=1", "/v1/jobs?x=1"},
	}
	for _, tc := range cases {
		resp, err := client.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMovedPermanently {
			t.Fatalf("GET %s → %d, want 301", tc.path, resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); loc != tc.want {
			t.Fatalf("GET %s → Location %q, want %q", tc.path, loc, tc.want)
		}
	}
	// The redirect survives a follow: /stats lands on real counters.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats service.Stats
	decErr := json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || decErr != nil {
		t.Fatalf("followed /stats → %d (%v)", resp.StatusCode, decErr)
	}
}

// TestEndToEndVecEngine round-trips the schema-v4 "engine": "vec" field
// through the v1 API: the vectorized job completes, hashes distinctly from
// the engine-less spelling (separate cache entries), and — because the
// kernel reproduces the sequential traces byte for byte — produces the
// exact same outputs.
func TestEndToEndVecEngine(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 2})

	const body = `{
	  "graph": {"builder": "splitring", "n": 8},
	  "kind": "od",
	  "function": "average",
	  "seed": 3,
	  "max_rounds": 2000%s
	}`
	vecSpec := fmt.Sprintf(body, `, "schema_version": 4, "engine": "vec"`)
	seqSpec := fmt.Sprintf(body, ``)

	jVec, code := postJob(t, ts, vecSpec)
	if code != http.StatusAccepted {
		t.Fatalf("vec submission → %d, want 202", code)
	}
	jSeq, code := postJob(t, ts, seqSpec)
	if code != http.StatusAccepted {
		t.Fatalf("seq submission → %d, want 202 (distinct cache entry)", code)
	}
	if jVec.Hash == jSeq.Hash {
		t.Fatalf("engine=vec did not change the spec hash: %s", jVec.Hash)
	}

	vec := waitDone(t, ts, jVec.ID)
	seq := waitDone(t, ts, jSeq.ID)
	if vec.State != service.StateDone || vec.Result == nil {
		t.Fatalf("vec job finished %q: %+v", vec.State, vec.Error)
	}
	if seq.State != service.StateDone || seq.Result == nil {
		t.Fatalf("seq job finished %q: %+v", seq.State, seq.Error)
	}
	// The canonical spec the service echoes back keeps the engine field.
	if spec, err := job.Decode(vec.Spec); err != nil || spec.Engine != "vec" {
		t.Fatalf("canonical spec engine = %q (%v), want \"vec\"", spec.Engine, err)
	}
	vr, sr := decodeResult(t, vec.Result), decodeResult(t, seq.Result)
	if vr.Rounds != sr.Rounds {
		t.Fatalf("rounds: vec %d, seq %d", vr.Rounds, sr.Rounds)
	}
	if len(vr.Outputs) != len(sr.Outputs) {
		t.Fatalf("output lengths differ: %d vs %d", len(vr.Outputs), len(sr.Outputs))
	}
	for i := range vr.Outputs {
		if vr.Outputs[i] != sr.Outputs[i] {
			t.Fatalf("output %d: vec %v, seq %v", i, vr.Outputs[i], sr.Outputs[i])
		}
	}
}
