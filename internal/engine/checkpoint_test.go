package engine_test

// Checkpoint/resume equality: a run snapshotted at round K and resumed on
// a fresh runner must continue with the byte-identical trace of the
// uninterrupted run — per engine, with and without fault plans (delayed
// in-flight messages included). This is the durability contract behind
// internal/store: the golden test of the checkpoint subsystem.

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

// ckptCase names one checkpointable workload × fault plan.
type ckptCase struct {
	name string
	algo string // key into algoCases (must be checkpointable)
	plan *faults.Plan
}

func ckptCases() []ckptCase {
	return []ckptCase{
		{name: "pushsum", algo: "pushsum"},
		{name: "pushsum/faults", algo: "pushsum",
			plan: &faults.Plan{Drop: 0.15, Dup: 0.1, DelayP: 0.25, DelayMax: 4, Stall: 0.1, Crash: 0.05}},
		{name: "metropolis", algo: "metropolis"},
		{name: "metropolis/faults+churn", algo: "metropolis",
			plan: &faults.Plan{Drop: 0.1, DelayP: 0.2, DelayMax: 3, Churn: &faults.ChurnPlan{Drop: 0.3, Window: 2, Guard: faults.GuardRepair}}},
	}
}

// ckptConfig builds the engine.Config of a case, compiling the fault plan
// exactly as the facade does.
func ckptConfig(t *testing.T, cc ckptCase) engine.Config {
	t.Helper()
	const n, seed = 7, 23
	var tc algoCase
	found := false
	for _, c := range algoCases() {
		if c.name == cc.algo {
			tc, found = c, true
			break
		}
	}
	if !found {
		t.Fatalf("unknown algo case %q", cc.algo)
	}
	cfg := engine.Config{
		Schedule: tc.schedule(n, 11),
		Kind:     tc.kind,
		Inputs:   caseInputs(n),
		Factory:  tc.factory(t),
		Seed:     seed,
	}
	if cc.plan != nil {
		inj, err := faults.NewInjector(seed, *cc.plan)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = inj
		sched, err := faults.WrapSchedule(cfg.Schedule, seed, cc.plan.Churn)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Schedule = sched
	}
	return cfg
}

// ckptRunner is one row of the checkpoint matrix: mk builds the run that
// is snapshotted, resume (nil: mk) the fresh runner restored from the
// snapshot, and tag, when set, re-stamps the snapshot's Engine tag first.
type ckptRunner struct {
	name   string
	mk     func(cfg engine.Config) (engine.Runner, error)
	resume func(cfg engine.Config) (engine.Runner, error)
	tag    string
}

// ckptRunners enumerates the three checkpointing engines, plus the
// checkpoints of the two retired core-layout runners, which durable
// stores written by earlier builds may hold — sequential snapshots
// stamped "concurrent" or "sharded", exactly what those runners wrote,
// since they shared the sequential engine's layout and draw sequence —
// each resumed on the runner NewRunner now builds for its spec's engine
// name: "conc", or "shard" with 3 shards.
func ckptRunners() []ckptRunner {
	seq := func(cfg engine.Config) (engine.Runner, error) { return engine.New(cfg) }
	return []ckptRunner{
		{name: "seq", mk: seq},
		{name: "conc", mk: seq, resume: named("conc", 0), tag: "concurrent"},
		{name: "shard3", mk: seq, resume: named("shard", 3), tag: "sharded"},
		{name: "vec", mk: func(cfg engine.Config) (engine.Runner, error) { return engine.NewVectorized(cfg) }},
		{name: "parvec3", mk: func(cfg engine.Config) (engine.Runner, error) { return engine.NewParallelVec(cfg, 3) }},
	}
}

// named returns the runner NewRunner builds for an engine name and shard
// count.
func named(name string, shards int) func(cfg engine.Config) (engine.Runner, error) {
	return func(cfg engine.Config) (engine.Runner, error) { return engine.NewRunner(cfg, name, shards) }
}

func traceLine(r engine.Runner) string {
	return fmt.Sprintf("%d:%v\n", r.Round(), r.Outputs())
}

func hashLines(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprint(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkpointSplice runs cc on rn.mk for 12 rounds, snapshotting at round
// 5 through Encode/Decode, restores the snapshot on a fresh rn.resume
// runner, and asserts that splicing the first run's pre-checkpoint trace
// with the resumed run's trace reproduces the uninterrupted trace hash,
// outputs, and stats byte for byte. It returns Restore's error without
// failing, so refusal cases can assert on it.
func checkpointSplice(t *testing.T, cc ckptCase, rn ckptRunner) error {
	t.Helper()
	const rounds, k = 12, 5
	// Uninterrupted run, snapshotting at round k.
	a, err := rn.mk(ckptConfig(t, cc))
	if errors.Is(err, engine.ErrNotVectorizable) {
		t.Skip("not vectorizable")
	}
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if !engine.CanCheckpoint(a) {
		t.Fatalf("%s run of %s reports not checkpointable", rn.name, cc.algo)
	}
	var lines []string
	var blob []byte
	for round := 1; round <= rounds; round++ {
		if err := a.Step(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		lines = append(lines, traceLine(a))
		if round == k {
			cp, err := a.(engine.Checkpointer).Snapshot()
			if err != nil {
				t.Fatalf("snapshot at round %d: %v", round, err)
			}
			if rn.tag != "" {
				cp.Engine = rn.tag
			}
			if blob, err = cp.Encode(); err != nil {
				t.Fatal(err)
			}
		}
	}
	full := hashLines(lines)

	// Fresh runner, restored from the encoded checkpoint.
	cp, err := engine.DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	resume := rn.resume
	if resume == nil {
		resume = rn.mk
	}
	b, err := resume(ckptConfig(t, cc))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.(engine.Checkpointer).Restore(cp); err != nil {
		return err
	}
	if b.Round() != k {
		t.Fatalf("restored runner at round %d, want %d", b.Round(), k)
	}
	spliced := append([]string(nil), lines[:k]...)
	for round := k + 1; round <= rounds; round++ {
		if err := b.Step(); err != nil {
			t.Fatalf("resumed round %d: %v", round, err)
		}
		spliced = append(spliced, traceLine(b))
	}
	if got := hashLines(spliced); got != full {
		t.Errorf("spliced trace hash %s, want uninterrupted %s", got, full)
	}
	if !reflect.DeepEqual(a.Outputs(), b.Outputs()) {
		t.Errorf("final outputs diverge:\n a: %v\n b: %v", a.Outputs(), b.Outputs())
	}
	if as, bs := a.Stats(), b.Stats(); as != bs {
		t.Errorf("final stats diverge: a %+v, b %+v", as, bs)
	}
	return nil
}

// TestCheckpointResumeTraceEquality is the subsystem's golden property:
// for every engine × workload × fault plan, splicing the pre-checkpoint
// trace of run A with the post-resume trace of run B reproduces run A's
// full trace hash byte for byte. The checkpoint round-trips through
// Encode/Decode, exercising the gob codec in-flight delayed messages and
// all.
func TestCheckpointResumeTraceEquality(t *testing.T) {
	for _, cc := range ckptCases() {
		for _, rn := range ckptRunners() {
			t.Run(cc.name+"/"+rn.name, func(t *testing.T) {
				if err := checkpointSplice(t, cc, rn); err != nil {
					t.Fatalf("restore: %v", err)
				}
			})
		}
	}
}

// TestCoreCheckpointCrossResume pins the checkpoint families: a snapshot
// taken on the sequential engine — or written by the retired concurrent
// or sharded runner, a sequential snapshot stamped "concurrent" or
// "sharded" — resumes on the sequential engine, and on what NewRunner
// builds for "shard" with 3 shards, and splices to the uninterrupted trace
// hash, delayed in-flight messages included, while the vector runners
// refuse it, and the sequential engine refuses theirs.
func TestCoreCheckpointCrossResume(t *testing.T) {
	mk := map[string]func(cfg engine.Config) (engine.Runner, error){"shard3": named("shard", 3)}
	for _, rn := range ckptRunners() {
		if rn.tag == "" {
			mk[rn.name] = rn.mk
		}
	}
	for _, c := range []struct {
		from, tag, to string
		ok            bool
	}{
		{"seq", "", "shard3", true},
		{"shard3", "", "seq", true},
		{"seq", "concurrent", "seq", true},
		{"seq", "concurrent", "shard3", true},
		{"seq", "sharded", "seq", true},
		{"seq", "", "vec", false},
		{"shard3", "", "parvec3", false},
		{"seq", "concurrent", "vec", false},
		{"seq", "sharded", "vec", false},
		{"seq", "sharded", "parvec3", false},
		{"vec", "", "seq", false},
		{"parvec3", "", "shard3", false},
	} {
		name := c.from + "-to-" + c.to
		if c.tag != "" {
			name = c.tag + "-to-" + c.to
		}
		t.Run(name, func(t *testing.T) {
			rn := ckptRunner{name: name, mk: mk[c.from], resume: mk[c.to], tag: c.tag}
			err := checkpointSplice(t, ckptCases()[1], rn) // pushsum with faults
			if c.ok && err != nil {
				t.Fatalf("restore: %v", err)
			}
			if !c.ok && err == nil {
				t.Fatal("restore accepted a checkpoint of the other family")
			}
		})
	}
}

// TestCheckpointedHarnessResume drives the checkpointed harness end to
// end: an uninterrupted checkpointed run and a resumed run must agree on
// the full StableResult — Rounds, StabilizedAt, and outputs.
func TestCheckpointedHarnessResume(t *testing.T) {
	const patience, maxRounds, every = 3, 60, 4
	for _, cc := range ckptCases() {
		t.Run(cc.name, func(t *testing.T) {
			var saved []*engine.Checkpoint
			a, err := engine.New(ckptConfig(t, cc))
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			want, err := engine.RunUntilStableCheckpointedCtx(context.Background(), a, patience, maxRounds, nil, engine.CheckpointPolicy{
				Every: every,
				Save: func(cp *engine.Checkpoint) error {
					saved = append(saved, cp)
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(saved) == 0 {
				t.Fatal("no checkpoints saved")
			}
			resume := saved[len(saved)-1]
			b, err := engine.New(ckptConfig(t, cc))
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			got, err := engine.RunUntilStableCheckpointedCtx(context.Background(), b, patience, maxRounds, nil, engine.CheckpointPolicy{Resume: resume})
			if err != nil {
				t.Fatal(err)
			}
			if got.Stable != want.Stable || got.Rounds != want.Rounds || got.StabilizedAt != want.StabilizedAt {
				t.Errorf("resumed result (stable=%v rounds=%d at=%d), want (stable=%v rounds=%d at=%d)",
					got.Stable, got.Rounds, got.StabilizedAt, want.Stable, want.Rounds, want.StabilizedAt)
			}
			if !reflect.DeepEqual(got.Outputs, want.Outputs) {
				t.Errorf("resumed outputs diverge:\n got %v\nwant %v", got.Outputs, want.Outputs)
			}
		})
	}
}

// TestCheckpointFlush asserts the graceful-shutdown path: a flush request
// checkpoints at the next round boundary, the run stops with
// ErrInterrupted, and resuming from the flushed checkpoint completes with
// the uninterrupted run's result.
func TestCheckpointFlush(t *testing.T) {
	const patience, maxRounds = 3, 60
	cc := ckptCases()[1] // pushsum with faults
	base, err := engine.New(ckptConfig(t, cc))
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	want, err := engine.RunUntilStableCtx(context.Background(), base, patience, maxRounds, nil)
	if err != nil {
		t.Fatal(err)
	}

	flush := make(chan struct{}, 1)
	flush <- struct{}{} // pre-armed: flush at the first round boundary
	var flushed *engine.Checkpoint
	a, err := engine.New(ckptConfig(t, cc))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	_, err = engine.RunUntilStableCheckpointedCtx(context.Background(), a, patience, maxRounds, nil, engine.CheckpointPolicy{
		Flush: flush,
		Save:  func(cp *engine.Checkpoint) error { flushed = cp; return nil },
	})
	if !errors.Is(err, engine.ErrInterrupted) {
		t.Fatalf("flushed run error = %v, want ErrInterrupted", err)
	}
	if flushed == nil {
		t.Fatal("flush did not save a checkpoint")
	}
	if flushed.Round != 1 {
		t.Fatalf("flush checkpoint at round %d, want 1", flushed.Round)
	}

	b, err := engine.New(ckptConfig(t, cc))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, err := engine.RunUntilStableCheckpointedCtx(context.Background(), b, patience, maxRounds, nil, engine.CheckpointPolicy{Resume: flushed})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || got.Stable != want.Stable || !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Errorf("resumed-after-flush result diverges: got rounds=%d stable=%v, want rounds=%d stable=%v",
			got.Rounds, got.Stable, want.Rounds, want.Stable)
	}
}

// TestCheckpointFlushWithoutCheckpointer: a flush alone needs no
// Checkpointer. The flooding kernel, which cannot checkpoint, stops at the
// next round boundary with ErrInterrupted and no snapshot; asked to save
// checkpoints, it is refused before its first round.
func TestCheckpointFlushWithoutCheckpointer(t *testing.T) {
	flush := make(chan struct{}, 1)
	flush <- struct{}{}
	f := floodRing(t, 8, 8)
	defer f.Close()
	if _, err := engine.RunUntilStableCheckpointedCtx(context.Background(), f, 3, 60, nil, engine.CheckpointPolicy{Flush: flush}); !errors.Is(err, engine.ErrInterrupted) {
		t.Fatalf("flushed kernel run = %v, want ErrInterrupted", err)
	}
	if f.Round() != 1 {
		t.Fatalf("flush stopped the kernel after round %d, want 1", f.Round())
	}

	g := floodRing(t, 8, 8)
	defer g.Close()
	flush <- struct{}{}
	_, err := engine.RunUntilStableCheckpointedCtx(context.Background(), g, 3, 60, nil, engine.CheckpointPolicy{
		Flush: flush,
		Save:  func(*engine.Checkpoint) error { return nil },
	})
	if !errors.Is(err, engine.ErrNotCheckpointable) || g.Round() != 0 {
		t.Fatalf("kernel run with Save = %v after round %d, want ErrNotCheckpointable before round 1", err, g.Round())
	}
}

// TestCanCheckpoint pins the capability matrix: the mass-passing algorithms
// checkpoint, the structural ones (gossip's sets, minbase's tables) do not
// yet.
func TestCanCheckpoint(t *testing.T) {
	for _, tc := range algoCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engine.Config{
				Schedule: tc.schedule(7, 11),
				Kind:     tc.kind,
				Inputs:   caseInputs(7),
				Factory:  tc.factory(t),
				Seed:     23,
			}
			r, err := engine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			want := tc.name == "pushsum" || tc.name == "metropolis"
			if got := engine.CanCheckpoint(r); got != want {
				t.Errorf("CanCheckpoint(%s) = %v, want %v", tc.name, got, want)
			}
		})
	}
}
