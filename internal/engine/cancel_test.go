package engine_test

// Cancellation coverage: a context cancelled mid-run aborts the harness
// loop at the next round boundary, and RunUntilStableCtx surfaces the
// context error.

import (
	"context"
	"errors"
	"testing"

	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// cancelAgent never stabilizes, so only the context can stop the run.
type cancelAgent struct{ value float64 }

func (a *cancelAgent) Send() model.Message          { return a.value }
func (a *cancelAgent) Receive(msgs []model.Message) { a.value++ }
func (a *cancelAgent) Output() model.Value          { return a.value }

func TestRunUntilStableCtxObservesCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e, err := engine.New(engine.Config{
		Schedule: dynamic.NewStatic(graph.Ring(3)),
		Kind:     model.SimpleBroadcast,
		Inputs:   caseInputs(3),
		Factory:  func(in model.Input) model.Agent { return &cancelAgent{value: in.Value} },
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	obs := func(round int, _ engine.Runner) {
		rounds = round
		if round == 2 {
			cancel()
		}
	}
	_, err = engine.RunUntilStableCtx(ctx, e, 2, 1000, obs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if rounds != 2 {
		t.Fatalf("observer saw %d rounds, want cancellation right after round 2", rounds)
	}
}
