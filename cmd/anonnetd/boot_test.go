package main

import (
	"errors"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"anonnet/internal/job"
	"anonnet/internal/store"
)

// TestBootPortInUseRunsNothing: a daemon whose -addr is taken returns the
// bind error at once and leaves its data dir as it found it. Recovering
// before binding would run the queued million-round job until -timeout on
// the way out, and log it failed for good.
func TestBootPortInUseRunsNothing(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	dir := t.TempDir()
	c, err := job.Compile(job.Spec{
		Graph: job.GraphSpec{Builder: "randomdyn", N: 8}, Kind: "od", Function: "average",
		Seed: 42, MaxRounds: 1000000, Patience: 1000000,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t, dir)
	if err := st.Append(store.Record{JobID: "j000001", Hash: c.Hash, State: store.StateQueued, Spec: c.SpecJSON}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openStore(t, dir)
	pending := st.Pending()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 {
		t.Fatalf("the data dir holds %d pending jobs, want 1", len(pending))
	}
	files := dirBytes(t, dir)

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", held.Addr().String(), "-data-dir", dir, "-timeout", "20s", "-grace", "1s"})
	}()
	select {
	case err = <-done:
	case <-time.After(time.Second):
		t.Fatal("run did not return within 1s of its bind failure")
	}
	if !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("run = %v, want the bind error (address in use)", err)
	}
	if got := dirBytes(t, dir); !reflect.DeepEqual(got, files) {
		t.Fatalf("the data dir changed: %d files before, %d after, or their bytes differ", len(files), len(got))
	}
	st = openStore(t, dir)
	defer st.Close()
	if got := st.Pending(); !reflect.DeepEqual(got, pending) {
		t.Fatalf("pending jobs after the failed boot: %+v, want %+v", got, pending)
	}
}

// dirBytes maps every file under dir, by its path relative to dir, to its
// bytes.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		files[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
