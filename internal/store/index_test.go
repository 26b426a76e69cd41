package store

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// scanResultByHash is the lookup ResultByHash's index replaces: the first
// job in log order that is done with a result under hash.
func scanResultByHash(s *Store, hash string) (json.RawMessage, bool) {
	for _, v := range s.Jobs() {
		if v.Hash == hash && v.State == StateDone && len(v.Result) > 0 {
			return v.Result, true
		}
	}
	return nil, false
}

var indexHashes = []string{"h0", "h1", "h2", "h3", "absent"}

func checkIndexMatchesScan(t *testing.T, s *Store, when string) {
	t.Helper()
	for _, h := range indexHashes {
		got, gotOK := s.ResultByHash(h)
		want, wantOK := scanResultByHash(s, h)
		if gotOK != wantOK || string(got) != string(want) {
			t.Fatalf("%s: ResultByHash(%s) = %s, %v; the scan finds %s, %v", when, h, got, gotOK, want, wantOK)
		}
	}
}

// appendRandom appends n seeded records over few jobs and hashes, so jobs
// reach done under one hash, are overlaid onto another, leave done, and
// share hashes with earlier and later jobs.
func appendRandom(t *testing.T, s *Store, rng *rand.Rand, n int, when string) {
	t.Helper()
	states := []string{StateQueued, StateRunning, StateDone, StateDone, StateFailed, StateCanceled, ""}
	for i := 0; i < n; i++ {
		rec := Record{
			JobID: fmt.Sprintf("j%06d", rng.Intn(24)),
			State: states[rng.Intn(len(states))],
		}
		if rng.Intn(4) != 0 {
			rec.Hash = indexHashes[rng.Intn(len(indexHashes)-1)]
		}
		if rng.Intn(2) == 0 {
			rec.Result = json.RawMessage(fmt.Sprintf(`{"r":%d}`, rng.Intn(1000)))
		}
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
		checkIndexMatchesScan(t, s, fmt.Sprintf("%s, append %d", when, i))
	}
}

func TestResultByHashIndexMatchesScan(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	opt := Options{MaxSegmentBytes: 256}

	s := mustOpen(t, dir, opt)
	appendRandom(t, s, rng, 300, "first boot")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, opt)
	checkIndexMatchesScan(t, s, "after replay")
	appendRandom(t, s, rng, 300, "second boot")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Damage the middle of a non-final segment: replay seals it to
	// .quarantine and loses its frames after the damage.
	segs, err := filepath.Glob(filepath.Join(dir, "log", "seg-*.log"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("expected ≥3 segments, got %d (%v)", len(segs), err)
	}
	victim := segs[len(segs)/2]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeader+1] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, opt)
	defer s.Close()
	if s.Stats().QuarantinedSegments == 0 {
		t.Fatal("damaged segment was not quarantined")
	}
	checkIndexMatchesScan(t, s, "after quarantine")
	appendRandom(t, s, rng, 100, "after quarantine")
}

// BenchmarkResultByHash times one disk-tier lookup — a hit and a miss —
// against logs of 10³ and 10⁵ done jobs. The index makes both independent
// of the log's size.
func BenchmarkResultByHash(b *testing.B) {
	for _, jobs := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{MaxSegmentBytes: 64 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < jobs; i++ {
				if err := s.Append(Record{JobID: fmt.Sprintf("j%06d", i), Hash: fmt.Sprintf("h%d", i),
					State: StateDone, Result: json.RawMessage(`{"outputs":[1]}`)}); err != nil {
					b.Fatal(err)
				}
			}
			hit := fmt.Sprintf("h%d", jobs/2)
			runtime.GC() // collect the set-up's garbage outside the timed loop
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.ResultByHash(hit); !ok {
					b.Fatal("miss on a logged hash")
				}
				if _, ok := s.ResultByHash("never-logged"); ok {
					b.Fatal("hit on an unlogged hash")
				}
			}
		})
	}
}
