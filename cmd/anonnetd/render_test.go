package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"anonnet/internal/job"
	"anonnet/internal/service"
	"anonnet/internal/store"
)

// renderSpec is a two-round max flood on an 8-ring whose inputs and
// outputs exercise every float format: ±0, the %e/%f cutoffs, subnormals
// and the extremes.
func renderSpec(seed int) string {
	return fmt.Sprintf(`{"graph":{"builder":"ring","n":8},"kind":"bc","function":"max",
		"values":[-0,1e-7,9.99e-7,1e21,9.99e20,5e-324,1.7976931348623157e308,-2.5],
		"seed":%d,"max_rounds":2,"patience":2}`, seed)
}

// renderFailure is a failed job's error text: HTML-escaped characters,
// a quote, a newline and non-ASCII. htmlFailure needs the HTML-safe
// escapes and nothing else.
const (
	renderFailure = "agent <3> & \"friends\"\nsaid: héllo ☃"
	htmlFailure   = "a < b && c > d"
)

// httpBody issues one request and returns its status and body.
func httpBody(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// wantEncoded fails unless body is encoding/json's compact rendering of v
// plus the trailing newline.
func wantEncoded(t *testing.T, what string, body []byte, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(want)+"\n" {
		t.Fatalf("%s:\n got %s\nwant %s", what, body, want)
	}
}

// checkJobBodies holds a job's GET body and, when it is terminal, its
// stream line to encoding/json's output for the same value.
func checkJobBodies(t *testing.T, ts *httptest.Server, svc *service.Service, id string) service.State {
	t.Helper()
	code, body := httpBody(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, "")
	if code != http.StatusOK {
		t.Fatalf("GET %s → %d", id, code)
	}
	j, err := svc.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	wantEncoded(t, "GET /v1/jobs/"+id, body, j)
	if j.State.Terminal() {
		_, line := httpBody(t, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/stream", "")
		wantEncoded(t, "stream of "+id, line, service.TerminalProgress(j))
	}
	return j.State
}

func submit(t *testing.T, ts *httptest.Server, spec string) string {
	t.Helper()
	j, code := postJob(t, ts, spec)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs → %d", code)
	}
	return j.ID
}

func awaitState(t *testing.T, svc *service.Service, id string, want service.State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j, err := svc.Get(id); err == nil && j.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// TestResponsesMatchEncodingJSON holds every response that carries a job
// to encoding/json: the service renders spec and result bytes once and
// copies them, so the GET, list, batch and stream bodies of a queued,
// running, done, failed, canceled, cache-hit and dedup-joined job must be
// exactly encoding/json's compact output for the same value, newline
// included.
func TestResponsesMatchEncodingJSON(t *testing.T) {
	release := make(chan struct{})
	var svc *service.Service
	ts, svc := newTestServer(t, service.Config{
		Workers:    1,
		CacheSize:  16,
		MaxRetries: -1,
		Store:      openStore(t, t.TempDir()),
		Intercept: func(ctx context.Context, id string, attempt int) error {
			j, err := svc.Get(id)
			if err != nil {
				return err
			}
			switch j.Spec.Seed {
			case 2:
				return errors.New(renderFailure)
			case 6:
				return errors.New(htmlFailure)
			case 3:
				select {
				case <-release:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			return nil
		},
	})
	defer close(release)

	done := submit(t, ts, renderSpec(1))
	awaitState(t, svc, done, service.StateDone)
	failed := submit(t, ts, renderSpec(2))
	awaitState(t, svc, failed, service.StateFailed)
	failedHTML := submit(t, ts, renderSpec(6))
	awaitState(t, svc, failedHTML, service.StateFailed)
	running := submit(t, ts, renderSpec(3))
	awaitState(t, svc, running, service.StateRunning)

	// One batch holds a cache hit, a job joining the running execution,
	// and two jobs queued behind it, one of which is then canceled.
	batchBody := fmt.Sprintf(`{"specs":[%s,%s,%s,%s]}`, renderSpec(1), renderSpec(3), renderSpec(4), renderSpec(5))
	code, body := httpBody(t, http.MethodPost, ts.URL+"/v1/batch", batchBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/batch → %d: %s", code, body)
	}
	var b struct {
		ID   string
		Jobs []struct{ ID string }
	}
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	hit, joined, queued, canceled := b.Jobs[0].ID, b.Jobs[1].ID, b.Jobs[2].ID, b.Jobs[3].ID
	if code, body := httpBody(t, http.MethodDelete, ts.URL+"/v1/jobs/"+canceled, ""); code != http.StatusOK {
		t.Fatalf("DELETE %s → %d: %s", canceled, code, body)
	}

	want := map[string]service.State{
		done: service.StateDone, failed: service.StateFailed, failedHTML: service.StateFailed, running: service.StateRunning,
		hit: service.StateDone, joined: service.StateRunning, queued: service.StateQueued,
		canceled: service.StateCanceled,
	}
	for id, state := range want {
		if got := checkJobBodies(t, ts, svc, id); got != state {
			t.Fatalf("job %s is %s, want %s", id, got, state)
		}
	}
	if j, _ := svc.Get(hit); !j.CacheHit {
		t.Fatalf("job %s is not a cache hit", hit)
	}
	if j, _ := svc.Get(joined); j.DedupOf != running {
		t.Fatalf("job %s joined %q, want %s", joined, j.DedupOf, running)
	}
	if j, _ := svc.Get(failed); j.Error != renderFailure {
		t.Fatalf("failed job's error %q, want %q", j.Error, renderFailure)
	}

	_, body = httpBody(t, http.MethodGet, ts.URL+"/v1/jobs", "")
	wantEncoded(t, "GET /v1/jobs", body, map[string]any{"jobs": svc.List()})
	_, body = httpBody(t, http.MethodGet, ts.URL+"/v1/batch/"+b.ID, "")
	batch, err := svc.GetBatch(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	wantEncoded(t, "GET /v1/batch/"+b.ID, body, batch)

	// The joined job's live stream: its per-round lines, then the terminal
	// line settle sends when the shared execution finishes.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + joined + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	release <- struct{}{}
	sc := bufio.NewScanner(resp.Body)
	var last []byte
	rounds := 0
	for sc.Scan() {
		last = append(append(last[:0], sc.Bytes()...), '\n')
		var ev service.Progress
		if err := json.Unmarshal(last, &ev); err != nil {
			t.Fatal(err)
		}
		if !ev.Done {
			// A round event carries its outputs as []F64, encoded per line.
			wantEncoded(t, "stream line of "+joined, last, ev)
			rounds++
		}
	}
	if rounds == 0 {
		t.Fatalf("stream of %s carried no round events", joined)
	}
	for _, id := range []string{running, joined, queued} {
		awaitState(t, svc, id, service.StateDone)
	}
	j, err := svc.Get(joined)
	if err != nil {
		t.Fatal(err)
	}
	wantEncoded(t, "live terminal line of "+joined, last, service.TerminalProgress(j))
	for id := range want {
		checkJobBodies(t, ts, svc, id)
	}
}

// TestDiskHitResponseMatchesEncodingJSON covers the result tier that
// reuses the log's bytes: after a restart the LRU is empty, so a cache hit
// renders the result exactly as the done record stored it.
func TestDiskHitResponseMatchesEncodingJSON(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	svc := service.New(service.Config{Workers: 1, Store: st})
	spec, err := job.Decode([]byte(renderSpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	first, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, svc, first.ID, service.StateDone)
	svc.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ts, svc := newTestServer(t, service.Config{Workers: 1, Store: openStore(t, dir)})
	hit := submit(t, ts, renderSpec(1))
	if j, _ := svc.Get(hit); !j.CacheHit {
		t.Fatalf("job %s after restart is not a cache hit", hit)
	}
	checkJobBodies(t, ts, svc, hit)
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}
