package main

// Operational surface of the chaos/robustness layer: jittered Retry-After
// headers, degraded readiness passthrough, and the breaker/store series on
// /metrics.

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"anonnet/internal/service"
	"anonnet/internal/store"
)

func TestRetryAfterJitterDeterministicRange(t *testing.T) {
	a := newJitter(rand.NewSource(7))
	b := newJitter(rand.NewSource(7))
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		got := a(10)
		if got != b(10) {
			t.Fatalf("draw %d: same seed diverged", i)
		}
		if got < 8 || got > 12 {
			t.Fatalf("jitter(10) = %d, want within ±20%%", got)
		}
		seen[got] = true
	}
	if len(seen) < 2 {
		t.Fatalf("200 draws all identical (%v) — no jitter applied", seen)
	}
	if got := a(1); got < 1 {
		t.Fatalf("jitter(1) = %d, must never drop below one second", got)
	}
	if got := a(0); got != 1 {
		t.Fatalf("jitter(0) = %d, want clamped to 1", got)
	}
}

func TestShedRetryAfterGoesThroughJitter(t *testing.T) {
	release := make(chan struct{})
	intercept := func(ctx context.Context, jobID string, attempt int) error {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	}
	defer close(release)
	svc := service.New(service.Config{Workers: 1, QueueDepth: 1, CacheSize: -1, Intercept: intercept})
	// A marker jitter proves the header goes through the hook: base + 41.
	ts := httptest.NewServer(newMux(svc, muxOptions{jitter: func(secs int) int { return secs + 41 }}))
	t.Cleanup(func() {
		ts.Close()
		svc.CancelAll()
		svc.Close()
	})

	for seed := 1; seed <= 2; seed++ {
		spec := `{"graph":{"builder":"ring","n":4},"kind":"od","function":"average","seed":` + strconv.Itoa(seed) + `}`
		if _, code := postJob(t, ts, spec); code != http.StatusAccepted {
			t.Fatalf("submit %d → %d", seed, code)
		}
		if seed == 1 {
			waitRunning(t, svc)
		}
	}
	rd, resp := getReadyz(t, ts)
	if resp.StatusCode != http.StatusServiceUnavailable || rd.Ready {
		t.Fatalf("saturated readyz → %d %+v, want 503", resp.StatusCode, rd)
	}
	want := strconv.Itoa(retryAfterSeconds(rd) + 41)
	if got := resp.Header.Get("Retry-After"); got != want {
		t.Fatalf("readyz Retry-After = %q, want jittered %q", got, want)
	}
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("Retry-After"); got != want {
		t.Fatalf("shed Retry-After = %q, want jittered %q", got, want)
	}
}

// darkFS is a store.FS whose log writes can be switched off, tripping the
// service breaker from the HTTP layer's point of view.
type darkFS struct {
	store.FS
	fail atomic.Bool
}

func (d *darkFS) OpenFile(path string, flag int, perm os.FileMode) (store.File, error) {
	f, err := d.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &darkFile{File: f, fs: d}, nil
}

func (d *darkFS) CreateTemp(dir, pattern string) (store.File, error) {
	f, err := d.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &darkFile{File: f, fs: d}, nil
}

type darkFile struct {
	store.File
	fs *darkFS
}

func (f *darkFile) Write(p []byte) (int, error) {
	if f.fs.fail.Load() {
		return 0, os.ErrClosed
	}
	return f.File.Write(p)
}

func TestReadyzAndMetricsReportDegraded(t *testing.T) {
	fs := &darkFS{FS: store.OS()}
	st, err := store.Open(t.TempDir(), store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{
		Workers:          1,
		Store:            st,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute, // stay degraded for the whole test
	})
	ts := httptest.NewServer(newMux(svc, muxOptions{metrics: newMetricsRegistry(svc, st, nil, nil)}))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
		st.Close()
	})

	fs.fail.Store(true)
	j, code := postJob(t, ts, `{"graph":{"builder":"ring","n":4},"kind":"od","function":"average","seed":9}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit with dark disk → %d, want accepted", code)
	}
	if j = waitDone(t, ts, j.ID); j.State != service.StateDone {
		t.Fatalf("degraded job → %q, want done", j.State)
	}

	rd, resp := getReadyz(t, ts)
	if resp.StatusCode != http.StatusOK || !rd.Ready || !rd.Degraded {
		t.Fatalf("degraded readyz → %d %+v, want 200 ready degraded", resp.StatusCode, rd)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"anonnetd_degraded 1",
		"anonnetd_breaker_trips_total 1",
		"anonnetd_degraded_dropped_total",
		"anonnetd_backfilled_total",
		"anonnetd_sync_failures_total",
		"anonnetd_store_quarantined_segments",
		"anonnetd_store_append_errors_total",
		"anonnetd_store_sync_failures_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q while degraded:\n%s", want, body)
		}
	}
}
