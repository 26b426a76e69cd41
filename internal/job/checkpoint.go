package job

import (
	"context"
	"fmt"

	"anonnet/internal/engine"
)

// CheckpointConfig tells RunCheckpointed how to persist and resume engine
// state. The zero value (no Every, no Resume, no Flush) degrades to a
// plain Run.
type CheckpointConfig struct {
	// Every snapshots the engine every k rounds (0 disables periodic
	// checkpoints).
	Every int
	// Resume is an encoded engine checkpoint to restore before round one;
	// nil starts fresh. Resuming a job whose algorithm cannot checkpoint
	// is an error — the blob could only have come from somewhere else.
	Resume []byte
	// Save receives each encoded checkpoint (periodic and flush-triggered).
	// The blob carries its round: engine.DecodeCheckpoint(blob).Round.
	Save func(blob []byte) error
	// Flush asks the run to stop at the next round boundary with
	// engine.ErrInterrupted — the graceful-shutdown path — after a final
	// checkpoint through Save when the algorithm can checkpoint.
	Flush <-chan struct{}
}

// RunCheckpointed executes a built job like Run, checkpointing the
// engine every cfg.Every rounds through cfg.Save and resuming from
// cfg.Resume when set. Jobs whose algorithm does not implement
// model.Checkpointable take no snapshots. A Flush stops every job at the
// next round boundary with an error wrapping engine.ErrInterrupted: a
// checkpointable one after its final checkpoint reached cfg.Save, any
// other with no checkpoint, so that it reruns from round 0.
func RunCheckpointed(ctx context.Context, b *Built, obs engine.Observer, ck CheckpointConfig) (*Result, error) {
	// One engine-selection point for the whole repo: engine.NewRunner maps
	// the spec's engine name to the runner and handles the deterministic
	// vec→seq fallback (identical traces) itself. The legacy Concurrent
	// flag leaves the name empty, so it runs on the sequential path, like
	// "shard", whose traces are identical.
	r, err := engine.NewRunner(b.engineConfig(), b.Spec.Engine, b.Spec.Shards)
	if err != nil {
		return nil, err
	}
	defer r.Close()

	pol := engine.CheckpointPolicy{Flush: ck.Flush}
	if engine.CanCheckpoint(r) {
		pol.Every = ck.Every
		if ck.Save != nil {
			pol.Save = func(cp *engine.Checkpoint) error {
				blob, err := cp.Encode()
				if err != nil {
					return err
				}
				return ck.Save(blob)
			}
		}
		if ck.Resume != nil {
			cp, err := engine.DecodeCheckpoint(ck.Resume)
			if err != nil {
				return nil, fmt.Errorf("job: resume checkpoint: %w", err)
			}
			pol.Resume = cp
		}
	} else if ck.Resume != nil {
		return nil, fmt.Errorf("job: %w: spec %s has a resume checkpoint but its algorithm cannot restore one",
			engine.ErrNotCheckpointable, b.Hash)
	}
	res, err := engine.RunUntilStableCheckpointedCtx(ctx, r, b.Spec.Patience, b.Spec.MaxRounds, obs, pol)
	if err != nil {
		return nil, err
	}
	var outputs []F64
	var maxErr float64
	if res.Floats != nil {
		// The float path: the result is encoded straight from its vector.
		outputs, maxErr = NumericFloats(res.Floats, b.Expected)
	} else {
		outputs, maxErr = Numeric(res.Outputs, b.Expected)
	}
	out := &Result{
		Outputs:      outputs,
		Stable:       res.Stable,
		StabilizedAt: res.StabilizedAt,
		Rounds:       res.Rounds,
		Expected:     F64(b.Expected),
		MaxErr:       F64(maxErr),
		Messages:     r.Stats().MessagesDelivered,
	}
	if b.Injector != nil {
		fs := r.Stats().Faults
		out.Faults = &FaultCounts{Dropped: fs.Dropped, Duplicated: fs.Duplicated, Delayed: fs.Delayed}
	}
	return out, nil
}
