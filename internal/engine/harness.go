package engine

import (
	"context"
	"fmt"
	"math"

	"anonnet/internal/model"
)

// This file implements the observation side of §2.3: computability is
// asymptotic convergence of every output sequence (x_i(t)) to f(v), so the
// harness runs executions and detects either exact stabilization (discrete
// metric) or ε-agreement (Euclidean metric).

// StableResult reports an exact-stabilization run.
type StableResult struct {
	// Stable is true when outputs stopped changing for the requested
	// patience window within the round budget.
	Stable bool
	// StabilizedAt is the first round from which outputs never changed
	// again during the run (meaningful when Stable).
	StabilizedAt int
	// Rounds is the number of rounds executed.
	Rounds int
	// Outputs is the final output vector; nil when the run took the
	// float path, whose final vector is Floats.
	Outputs []model.Value
	// Floats is the final output vector of a run on a FloatRunner (see
	// RunUntilStableCheckpointedCtx); nil otherwise. The result owns it.
	Floats []float64
}

// Values returns the final output vector as values: Outputs, or Floats
// boxed.
func (res *StableResult) Values() []model.Value {
	if res.Floats == nil {
		return res.Outputs
	}
	out := make([]model.Value, len(res.Floats))
	for i, v := range res.Floats {
		out[i] = v
	}
	return out
}

// Observer is a per-round callback: after every completed round the
// harness hands it the round number and the runner, from which it reads
// the outputs it needs, when it needs them: Outputs boxes a fresh vector
// the observer owns, and a FloatRunner's Floats reads the runner's own.
// A run nobody watches boxes nothing. Observers enable round-by-round
// progress streaming without giving callers control of the loop; they
// must not step, corrupt or close the runner.
type Observer func(round int, r Runner)

// FloatRunner is the optional runner capability behind the harness's
// float path: a runner whose every output is a float64 offers them as one
// vector, read without boxing. The flooding kernel implements it.
type FloatRunner interface {
	Runner
	// Floats returns the current outputs in the runner's own vector,
	// valid until its next Step or Corrupt; callers must not write it.
	Floats() []float64
}

// RunUntilStable steps r until the outputs are unchanged (distance 0 under
// model.Discrete) for `patience` consecutive rounds, or until maxRounds:
// "computation in finite time" detection (§2.3).
func RunUntilStable(r Runner, patience, maxRounds int) (*StableResult, error) {
	return RunUntilStableCtx(context.Background(), r, patience, maxRounds, nil)
}

// RunUntilStableCtx is RunUntilStable with cooperative cancellation and an
// optional per-round observer. The context is checked between rounds, so a
// cancellation or deadline aborts the execution at the next round boundary
// with the context's error; obs (when non-nil) is invoked after every
// round. Every runner is driven through this loop, so the context bounds
// all of them alike.
func RunUntilStableCtx(ctx context.Context, r Runner, patience, maxRounds int, obs Observer) (*StableResult, error) {
	return RunUntilStableCheckpointedCtx(ctx, r, patience, maxRounds, obs, CheckpointPolicy{})
}

func outputsEqual(a, b []model.Value) bool {
	for i := range a {
		if model.Discrete(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// CloseResult reports an ε-agreement run.
type CloseResult struct {
	// Converged is true when every output came within eps of target before
	// the round budget ran out.
	Converged bool
	// Rounds is the round at which convergence was first observed (or the
	// budget if not converged).
	Rounds int
	// MaxErr is the final maximal distance to target.
	MaxErr float64
	// Outputs is the final output vector.
	Outputs []model.Value
}

// RunUntilClose steps r until max_i δ(x_i(t), target) ≤ eps, or until
// maxRounds — the Euclidean-metric computability criterion of §2.3 with the
// limit known to the harness.
func RunUntilClose(r Runner, target model.Value, met model.Metric, eps float64, maxRounds int) (*CloseResult, error) {
	return RunUntilCloseCtx(context.Background(), r, target, met, eps, maxRounds, nil)
}

// RunUntilCloseCtx is RunUntilClose with cooperative cancellation and an
// optional per-round observer; see RunUntilStableCtx.
func RunUntilCloseCtx(ctx context.Context, r Runner, target model.Value, met model.Metric, eps float64, maxRounds int, obs Observer) (*CloseResult, error) {
	var res CloseResult
	for t := 1; t <= maxRounds; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("engine: run aborted after %d rounds: %w", r.Round(), err)
		}
		if err := r.Step(); err != nil {
			return nil, err
		}
		if obs != nil {
			obs(r.Round(), r)
		}
		res.Outputs = r.Outputs()
		res.MaxErr = maxDistance(res.Outputs, target, met)
		res.Rounds = r.Round()
		if res.MaxErr <= eps {
			res.Converged = true
			return &res, nil
		}
	}
	return &res, nil
}

func maxDistance(outputs []model.Value, target model.Value, met model.Metric) float64 {
	worst := 0.0
	for _, o := range outputs {
		d := met(o, target)
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// RunRounds steps r exactly `rounds` times and returns the history of
// output vectors, history[t] being the outputs after round t+1.
func RunRounds(r Runner, rounds int) ([][]model.Value, error) {
	return RunRoundsCtx(context.Background(), r, rounds)
}

// RunRoundsCtx is RunRounds with cooperative cancellation: the context is
// checked between rounds, and an abort returns the partial history with
// the context's error.
func RunRoundsCtx(ctx context.Context, r Runner, rounds int) ([][]model.Value, error) {
	history := make([][]model.Value, 0, rounds)
	for t := 0; t < rounds; t++ {
		if err := ctx.Err(); err != nil {
			return history, fmt.Errorf("engine: run aborted after %d rounds: %w", r.Round(), err)
		}
		if err := r.Step(); err != nil {
			return history, err
		}
		history = append(history, r.Outputs())
	}
	return history, nil
}
