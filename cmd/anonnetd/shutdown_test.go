package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"anonnet/internal/engine"
	"anonnet/internal/job"
	"anonnet/internal/service"
	"anonnet/internal/store"
)

// TestShutdownWithOpenStreamInterrupts: a durable daemon shut down while a
// client watches a running job's NDJSON stream, with a grace far shorter
// than the job, flushes the job instead of canceling it. The stream ends
// with the interrupted event, the log records the job interrupted, and the
// next boot recovers it and resumes from its checkpoint blob.
func TestShutdownWithOpenStreamInterrupts(t *testing.T) {
	const grace = 3 * time.Second
	dir := t.TempDir()
	st1 := openStore(t, dir)
	svc1 := service.New(service.Config{Workers: 1, Store: st1, CheckpointEvery: 100})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: newMux(svc1, muxOptions{})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Push-Sum on a random dynamic 8-graph for a million rounds: long and
	// checkpointable.
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(
		`{"graph":{"builder":"randomdyn","n":8},"kind":"od","function":"average",
		  "seed":42,"max_rounds":1000000,"patience":1000000}`))
	if err != nil {
		t.Fatal(err)
	}
	var j service.Job
	err = json.NewDecoder(resp.Body).Decode(&j)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit → %d, %v", resp.StatusCode, err)
	}
	stream, err := http.Get(base + "/v1/jobs/" + j.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	lines := bufio.NewScanner(stream.Body)
	lines.Buffer(nil, 1<<20)
	var last service.Progress
	for last.Round < 500 {
		if !lines.Scan() {
			t.Fatalf("stream ended before the job got going: %v", lines.Err())
		}
		if err := json.Unmarshal(lines.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}

	ran := last.Round

	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	begun := time.Now()
	shutdown(ctx, srv, svc1, dir)
	if took := time.Since(begun); took >= grace {
		t.Errorf("shutdown took %v, the whole grace", took)
	}
	// A stream left open would block the read below forever.
	time.AfterFunc(grace, func() { stream.Body.Close() })
	for lines.Scan() {
		if err := json.Unmarshal(lines.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}
	if last.State != service.StateInterrupted || !last.Done {
		t.Fatalf("stream ended with %+v, want the done interrupted event", last)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	var logged string
	if err := st2.Scan(func(r store.Record) error {
		if r.JobID == j.ID {
			logged = r.State
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if logged != store.StateInterrupted {
		t.Fatalf("job %s last logged %q, want %q", j.ID, logged, store.StateInterrupted)
	}
	blob, err := st2.LatestCheckpoint(j.Hash)
	if err != nil {
		t.Fatalf("no checkpoint blob for the flushed job: %v", err)
	}
	cp, err := engine.DecodeCheckpoint(blob)
	if err != nil || cp.Round < ran {
		t.Fatalf("checkpoint at round %d (%v), want one at or past round %d, which the stream reported", cp.Round, err, ran)
	}

	svc2 := service.New(service.Config{Workers: 1, Store: st2, CheckpointEvery: 100})
	defer func() {
		svc2.CancelAll()
		svc2.Close()
	}()
	if n, err := svc2.Recover(); err != nil || n != 1 {
		t.Fatalf("recovered %d jobs (%v), want 1", n, err)
	}
	ch, stop, err := svc2.Watch(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// Resumed, not restarted: the job reports rounds past the checkpoint
	// while the new service has simulated fewer than that.
	deadline := time.After(15 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok || ev.Done {
				t.Fatalf("recovered job ended early: %+v", ev)
			}
			if ev.Round <= cp.Round {
				continue
			}
			if sim := svc2.Stats().RoundsSimulated; sim >= int64(ev.Round) {
				t.Fatalf("round %d after %d simulated rounds: the job restarted from round 0", ev.Round, sim)
			}
			return
		case <-deadline:
			t.Fatal("recovered job made no progress past its checkpoint")
		}
	}
}

// TestShutdownWithoutStoreCancelsAtGrace: without a data dir there is
// nothing to flush to, so shutdown lets a running job go on for the whole
// grace, then cancels it.
func TestShutdownWithoutStoreCancelsAtGrace(t *testing.T) {
	const grace = 200 * time.Millisecond
	svc := service.New(service.Config{Workers: 1})
	j, err := svc.Submit(job.Spec{Graph: job.GraphSpec{Builder: "randomdyn", N: 8}, Kind: "od",
		Function: "average", Seed: 42, MaxRounds: 1000000, Patience: 1000000})
	if err != nil {
		t.Fatal(err)
	}
	for svc.Stats().RoundsSimulated == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	begun := time.Now()
	shutdown(ctx, &http.Server{}, svc, "")
	if took := time.Since(begun); took < grace {
		t.Errorf("shutdown returned after %v, before the grace of %v", took, grace)
	}
	if got, err := svc.Get(j.ID); err != nil || got.State != service.StateCanceled {
		t.Fatalf("job after shutdown: %+v, %v; want it canceled", got, err)
	}
}

// TestShutdownWithQueuedStreamEnds: a durable shutdown strands the jobs
// still queued — they stay queued in the log for the next boot — and ends
// their watch streams with a last queued event, so the HTTP server's
// drain does not wait out the grace on them. The next boot recovers the
// stranded job and runs it.
func TestShutdownWithQueuedStreamEnds(t *testing.T) {
	const grace = 2 * time.Second
	dir := t.TempDir()
	st1 := openStore(t, dir)
	svc1 := service.New(service.Config{Workers: 1, Store: st1, CheckpointEvery: 100})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: newMux(svc1, muxOptions{})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Two long Push-Sum jobs that differ in their seed: the one worker
	// runs the first, and the second waits in the queue.
	var jobs [2]service.Job
	for i := range jobs {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(fmt.Sprintf(
			`{"graph":{"builder":"randomdyn","n":8},"kind":"od","function":"average",
			  "seed":%d,"max_rounds":1000000,"patience":1000000}`, 42+i)))
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&jobs[i])
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d → %d, %v", i, resp.StatusCode, err)
		}
	}
	for svc1.Stats().RoundsSimulated == 0 {
		time.Sleep(time.Millisecond)
	}
	queued := jobs[1].ID
	if j, err := svc1.Get(queued); err != nil || j.State != service.StateQueued {
		t.Fatalf("second job: %+v, %v; want it queued behind the first", j, err)
	}
	stream, err := http.Get(base + "/v1/jobs/" + queued + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	begun := time.Now()
	shutdown(ctx, srv, svc1, dir)
	if took := time.Since(begun); took >= grace/2 {
		t.Errorf("shutdown took %v, want well inside the grace of %v", took, grace)
	}
	// A stream left open would block the read below forever.
	time.AfterFunc(grace, func() { stream.Body.Close() })
	lines := bufio.NewScanner(stream.Body)
	var last service.Progress
	n := 0
	for lines.Scan() {
		if err := json.Unmarshal(lines.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n == 0 || last.State != service.StateQueued || last.JobID != queued {
		t.Fatalf("stream sent %d lines, the last %+v; want it to end with the queued event of %s", n, last, queued)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Two workers after the restart: the interrupted first job resumes
	// on one, and the stranded one must run on the other.
	st2 := openStore(t, dir)
	svc2 := service.New(service.Config{Workers: 2, Store: st2, CheckpointEvery: 100})
	defer func() {
		svc2.CancelAll()
		svc2.Close()
	}()
	if n, err := svc2.Recover(); err != nil || n != 2 {
		t.Fatalf("recovered %d jobs (%v), want 2", n, err)
	}
	ch, stop, err := svc2.Watch(queued)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	deadline := time.After(15 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok || ev.Done {
				t.Fatalf("recovered job ended early: %+v", ev)
			}
			if ev.State == service.StateRunning && ev.Round > 0 {
				return
			}
		case <-deadline:
			t.Fatal("the recovered job never ran")
		}
	}
}
