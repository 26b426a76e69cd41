package engine_test

// Cancellation coverage: a context cancelled while the sharded engine is
// mid-round (inside a receive-phase shard goroutine) aborts the harness
// loop at the next round boundary and leaks no goroutines, and
// RunUntilStableCtx surfaces the context error.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// cancelAgent cancels a shared context during its round-3 Receive — i.e.
// while the engine is inside a phase, between barriers.
type cancelAgent struct {
	value  float64
	rounds int
	cancel context.CancelFunc
}

func (a *cancelAgent) Send() model.Message { return a.value }
func (a *cancelAgent) Receive(msgs []model.Message) {
	a.rounds++
	if a.cancel != nil && a.rounds == 3 {
		a.cancel()
	}
	a.value++ // never stabilizes, so only the context can stop the run
}
func (a *cancelAgent) Output() model.Value { return a.value }

func TestShardedCancelMidRoundNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := true
	factory := func(in model.Input) model.Agent {
		a := &cancelAgent{value: in.Value}
		if first {
			a.cancel = cancel // agent 0 pulls the plug mid-round
			first = false
		}
		return a
	}
	shd, err := engine.NewSharded(engine.Config{
		Schedule: dynamic.NewStatic(graph.Ring(32)),
		Kind:     model.SimpleBroadcast,
		Inputs:   caseInputs(32),
		Factory:  factory,
		Seed:     3,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}

	res, err := engine.RunUntilStableCtx(ctx, shd, 2, 1000, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v (result %+v), want context.Canceled", err, res)
	}
	if res != nil {
		t.Fatalf("cancelled run returned a result: %+v", res)
	}
	// The cancellation fired inside round 3's receive phase; the loop
	// observes it at the round-4 boundary.
	if shd.Round() != 3 {
		t.Fatalf("engine stopped after round %d, want 3", shd.Round())
	}
	shd.Close()

	// The sharded engine joins its phase goroutines on a barrier every
	// phase, so after Close the goroutine count must return to the
	// baseline. Poll: the runtime reclaims exited goroutines lazily.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancelled run", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

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
