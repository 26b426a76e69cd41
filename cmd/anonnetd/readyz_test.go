package main

// Readiness, load shedding, and the crash-resilience acceptance path:
// a panicking job must leave the daemon serving.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"anonnet/internal/service"
)

func getReadyz(t *testing.T, ts *httptest.Server) (service.Readiness, *http.Response) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rd service.Readiness
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	return rd, resp
}

func TestReadyzReady(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})
	rd, resp := getReadyz(t, ts)
	if resp.StatusCode != http.StatusOK || !rd.Ready {
		t.Fatalf("readyz → %d %+v, want 200 ready", resp.StatusCode, rd)
	}
}

func TestReadyzShedsWhenSaturated(t *testing.T) {
	release := make(chan struct{})
	intercept := func(ctx context.Context, jobID string, attempt int) error {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	}
	defer close(release)
	ts, svc := newTestServer(t, service.Config{Workers: 1, QueueDepth: 1, CacheSize: -1, Intercept: intercept})

	// Fill the pool and the queue.
	if _, code := postJob(t, ts, `{"graph":{"builder":"ring","n":4},"kind":"od","function":"average","seed":1}`); code != http.StatusAccepted {
		t.Fatalf("first submit → %d", code)
	}
	waitRunning(t, svc)
	if _, code := postJob(t, ts, `{"graph":{"builder":"ring","n":4},"kind":"od","function":"average","seed":2}`); code != http.StatusAccepted {
		t.Fatalf("second submit → %d", code)
	}

	rd, resp := getReadyz(t, ts)
	if resp.StatusCode != http.StatusServiceUnavailable || rd.Ready || rd.Reason != "queue full" {
		t.Fatalf("saturated readyz → %d %+v, want 503 queue full", resp.StatusCode, rd)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 readyz missing Retry-After")
	}

	// Intake sheds with the same verdict before touching the body.
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable || resp2.Header.Get("Retry-After") == "" {
		t.Fatalf("saturated submit → %d (Retry-After %q), want 503 with Retry-After",
			resp2.StatusCode, resp2.Header.Get("Retry-After"))
	}
	var p struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&p); err != nil || p.Code != "not_ready" {
		t.Fatalf("shed problem code %q (%v), want not_ready", p.Code, err)
	}
}

// TestPanickingJobLeavesDaemonServing is the acceptance criterion:
// submitting a job whose attempt panics (the test hook standing in for a
// panicking agent factory) yields a failed job carrying the panic
// message, while the daemon stays ready and completes later submissions.
func TestPanickingJobLeavesDaemonServing(t *testing.T) {
	intercept := func(ctx context.Context, jobID string, attempt int) error {
		if jobID == "j000001" {
			panic("agent factory exploded")
		}
		return nil
	}
	ts, svc := newTestServer(t, service.Config{Workers: 1, Intercept: intercept})

	j, code := postJob(t, ts, `{"graph":{"builder":"ring","n":4},"kind":"od","function":"average","seed":42}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit → %d", code)
	}
	j = waitDone(t, ts, j.ID)
	if j.State != service.StateFailed || !strings.Contains(j.Error, "agent factory exploded") {
		t.Fatalf("panicking job → %q (err %q), want failed with panic message", j.State, j.Error)
	}
	if got := svc.Stats().PanicsRecovered; got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}

	rd, resp := getReadyz(t, ts)
	if resp.StatusCode != http.StatusOK || !rd.Ready {
		t.Fatalf("readyz after panic → %d %+v, want 200 ready", resp.StatusCode, rd)
	}

	// A faulted v3 spec end-to-end: accepted, completes, reports counts.
	j2, code := postJob(t, ts, `{
	  "schema_version": 3,
	  "graph": {"builder": "ring", "n": 8},
	  "kind": "od",
	  "function": "average",
	  "max_rounds": 80,
	  "seed": 7,
	  "faults": {"drop": 0.2, "stall": 0.1}
	}`)
	if code != http.StatusAccepted {
		t.Fatalf("faulted submit → %d", code)
	}
	j2 = waitDone(t, ts, j2.ID)
	if j2.State != service.StateDone {
		t.Fatalf("faulted job → %q (err %q), want done", j2.State, j2.Error)
	}
	if j2.Result == nil || j2.Result.Faults == nil || j2.Result.Faults.Dropped == 0 {
		t.Fatalf("faulted job result missing fault counts: %+v", j2.Result)
	}
}

func waitRunning(t *testing.T, svc *service.Service) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if svc.Stats().Running == 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no job reached running state")
}
