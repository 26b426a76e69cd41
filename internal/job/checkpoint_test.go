package job

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"anonnet/internal/engine"
	"anonnet/internal/faults"
)

// ckptSpec is the acceptance workload: a dynamic outdegree-aware Push-Sum
// job (splitring network) with optional fault plan and engine selection.
func ckptSpec(eng string, withFaults bool) Spec {
	s := Spec{
		SchemaVersion: 4,
		Graph:         GraphSpec{Builder: "splitring", N: 8},
		Kind:          "od",
		Function:      "average",
		Values:        []float64{3, 1, 4, 1, 5, 9, 2, 6},
		Seed:          7,
		MaxRounds:     400,
		Engine:        eng,
	}
	if eng == "shard" {
		s.Shards = 3
	}
	if withFaults {
		s.Faults = &faults.Plan{Drop: 0.1, Dup: 0.05, DelayP: 0.2, DelayMax: 3, Stall: 0.05}
	}
	return s
}

// build builds c without a cache, as Run does.
func build(t testing.TB, c *Compiled) *Built {
	t.Helper()
	b, err := c.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// traceRecorder accumulates the round-by-round trace lines an observer
// sees, in the golden-test format.
type traceRecorder struct{ lines []string }

func (tr *traceRecorder) obs(round int, r engine.Runner) {
	tr.lines = append(tr.lines, fmt.Sprintf("%d:%v\n", round, r.Outputs()))
}

func hashTrace(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprint(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunCheckpointedResumeMatchesUninterrupted is the PR's acceptance
// criterion at the job level: a Push-Sum job checkpointed at round K,
// killed (flush), and resumed produces the byte-identical trace hash and
// the identical Result of the same spec run uninterrupted — on every
// engine name, with and without a fault plan ("conc" and "shard" run the
// sequential path).
func TestRunCheckpointedResumeMatchesUninterrupted(t *testing.T) {
	for _, withFaults := range []bool{false, true} {
		for _, eng := range []string{"seq", "conc", "shard", "vec"} {
			name := eng
			if withFaults {
				name += "+faults"
			}
			t.Run(name, func(t *testing.T) {
				spec := ckptSpec(eng, withFaults)
				compile := func() *Compiled {
					c, err := Compile(spec)
					if err != nil {
						t.Fatal(err)
					}
					return c
				}

				// The uninterrupted reference run.
				ref := &traceRecorder{}
				want, err := Run(context.Background(), compile(), ref.obs)
				if err != nil {
					t.Fatal(err)
				}
				wantHash := hashTrace(ref.lines)

				// The killed run: flush fires once k rounds have elapsed,
				// checkpointing and stopping with ErrInterrupted.
				const k = 5
				flush := make(chan struct{}, 1)
				var blob []byte
				pre := &traceRecorder{}
				_, err = RunCheckpointed(context.Background(), build(t, compile()), func(round int, r engine.Runner) {
					pre.obs(round, r)
					if round == k {
						flush <- struct{}{}
					}
				}, CheckpointConfig{Flush: flush, Save: func(b []byte) error { blob = b; return nil }})
				if !errors.Is(err, engine.ErrInterrupted) {
					t.Fatalf("killed run error = %v, want ErrInterrupted", err)
				}
				if cp, err := engine.DecodeCheckpoint(blob); err != nil || cp.Round != k {
					t.Fatalf("flush checkpoint %+v (%v), want round %d", cp, err, k)
				}

				// The resumed run completes the job from the blob.
				post := &traceRecorder{}
				got, err := RunCheckpointed(context.Background(), build(t, compile()), post.obs, CheckpointConfig{Resume: blob})
				if err != nil {
					t.Fatal(err)
				}
				spliced := append(append([]string(nil), pre.lines[:k]...), post.lines...)
				if gotHash := hashTrace(spliced); gotHash != wantHash {
					t.Errorf("spliced trace hash %s, want uninterrupted %s", gotHash, wantHash)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("resumed result %+v diverges from uninterrupted %+v", got, want)
				}
			})
		}
	}
}

// retiredBlob returns the checkpoint a retired core-layout runner wrote
// for spec at round k — the sequential engine's flush snapshot (they
// shared its layout and draw sequence) stamped with the runner's tag,
// "concurrent" or "sharded" — and the trace lines of rounds 1..k.
func retiredBlob(t *testing.T, spec Spec, k int, tag string) ([]byte, []string) {
	t.Helper()
	spec.Concurrent, spec.Engine, spec.Shards = false, "", 0
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	flush := make(chan struct{}, 1)
	var blob []byte
	pre := &traceRecorder{}
	_, err = RunCheckpointed(context.Background(), build(t, c), func(round int, r engine.Runner) {
		pre.obs(round, r)
		if round == k {
			flush <- struct{}{}
		}
	}, CheckpointConfig{Flush: flush, Save: func(b []byte) error { blob = b; return nil }})
	if !errors.Is(err, engine.ErrInterrupted) {
		t.Fatalf("sequential run error = %v, want ErrInterrupted", err)
	}
	cp, err := engine.DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Round != k || cp.Engine != "sequential" {
		t.Fatalf("flush checkpoint %q at round %d, want sequential at round %d", cp.Engine, cp.Round, k)
	}
	cp.Engine = tag
	if blob, err = cp.Encode(); err != nil {
		t.Fatal(err)
	}
	return blob, pre.lines
}

// resumeRetired resumes the job of spec from the checkpoint a retired
// runner tagged tag wrote at round 5, and asserts the spliced trace hash
// and Result equal the uninterrupted run's.
func resumeRetired(t *testing.T, spec Spec, tag string) {
	t.Helper()
	const k = 5
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := &traceRecorder{}
	want, err := Run(context.Background(), c, ref.obs)
	if err != nil {
		t.Fatal(err)
	}
	blob, pre := retiredBlob(t, spec, k, tag)
	post := &traceRecorder{}
	got, err := RunCheckpointed(context.Background(), build(t, c), post.obs, CheckpointConfig{Resume: blob})
	if err != nil {
		t.Fatalf("resume from a %s checkpoint: %v", tag, err)
	}
	spliced := append(append([]string(nil), pre...), post.lines...)
	if gotHash, wantHash := hashTrace(spliced), hashTrace(ref.lines); gotHash != wantHash {
		t.Errorf("spliced trace hash %s, want uninterrupted %s", gotHash, wantHash)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed result %+v diverges from uninterrupted %+v", got, want)
	}
}

// TestRunCheckpointedResumesConcurrentCheckpoint: a checkpoint stamped
// "concurrent" by the retired goroutine-per-agent runner resumes the
// concurrent:true job that wrote it — which now runs on the sequential
// path — and the spliced trace hash and Result equal the uninterrupted
// run's, with and without a fault plan.
func TestRunCheckpointedResumesConcurrentCheckpoint(t *testing.T) {
	for _, withFaults := range []bool{false, true} {
		t.Run(fmt.Sprintf("faults=%v", withFaults), func(t *testing.T) {
			spec := ckptSpec("conc", withFaults)
			if c, err := Compile(spec); err != nil || !c.Spec.Concurrent {
				t.Fatalf("engine=conc did not fold into the concurrent flag (%v)", err)
			}
			resumeRetired(t, spec, "concurrent")
		})
	}
}

// TestRunCheckpointedResumesShardedCheckpoint: a checkpoint stamped
// "sharded" by the retired sharded engine resumes the engine=shard job
// that wrote it — which now runs on the sequential path — to the
// uninterrupted trace hash and Result, with and without a fault plan.
func TestRunCheckpointedResumesShardedCheckpoint(t *testing.T) {
	for _, withFaults := range []bool{false, true} {
		t.Run(fmt.Sprintf("faults=%v", withFaults), func(t *testing.T) {
			resumeRetired(t, ckptSpec("shard", withFaults), "sharded")
		})
	}
}

// TestRunCheckpointedPlainWhenNotCheckpointable pins a non-checkpointable
// algorithm (gossip over simple broadcast) under a checkpoint config: with
// Every and Save it runs to completion, takes no snapshot and matches
// plain Run; a Flush stops it at the next round boundary with
// ErrInterrupted and no checkpoint; a Resume is refused.
func TestRunCheckpointedPlainWhenNotCheckpointable(t *testing.T) {
	spec := Spec{
		Graph:     GraphSpec{Builder: "ring", N: 6},
		Kind:      "bc",
		Function:  "max",
		Values:    []float64{3, 1, 4, 1, 5, 9},
		Seed:      5,
		MaxRounds: 200,
	}
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	saves := 0
	save := func([]byte) error { saves++; return nil }
	c2, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCheckpointed(context.Background(), build(t, c2), nil, CheckpointConfig{Every: 1, Save: save})
	if err != nil {
		t.Fatalf("non-checkpointable run error: %v", err)
	}
	if saves != 0 {
		t.Errorf("non-checkpointable run saved %d checkpoints", saves)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("non-checkpointable result %+v diverges from Run %+v", got, want)
	}

	// A flush stops the run without a checkpoint.
	flush := make(chan struct{}, 1)
	flush <- struct{}{}
	c4, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCheckpointed(context.Background(), build(t, c4), nil, CheckpointConfig{Every: 1, Flush: flush, Save: save}); !errors.Is(err, engine.ErrInterrupted) {
		t.Errorf("flushed non-checkpointable run = %v, want ErrInterrupted", err)
	}
	if saves != 0 {
		t.Errorf("flushed non-checkpointable run saved %d checkpoints", saves)
	}

	// Resuming a non-checkpointable job is an explicit error.
	c3, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCheckpointed(context.Background(), build(t, c3), nil, CheckpointConfig{Resume: []byte("blob")}); !errors.Is(err, engine.ErrNotCheckpointable) {
		t.Errorf("resume of non-checkpointable job = %v, want ErrNotCheckpointable", err)
	}
}
