package engine_test

// The shared algorithm workloads of the external engine tests: one
// (algorithm, model, network) case per algorithm package, driven through
// the real algorithm factories (core imports engine, so the internal test
// package cannot).

import (
	"math/rand"
	"testing"

	"anonnet/internal/algorithms/freqcalc"
	"anonnet/internal/algorithms/gossip"
	"anonnet/internal/algorithms/metropolis"
	"anonnet/internal/algorithms/minbase"
	"anonnet/internal/algorithms/pushsum"
	"anonnet/internal/dynamic"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// algoCase is one (algorithm, model, network) workload for the equality
// property.
type algoCase struct {
	name     string
	kind     model.Kind
	factory  func(t *testing.T) model.Factory
	schedule func(n int, seed int64) dynamic.Schedule
	rounds   int
}

func algoCases() []algoCase {
	return []algoCase{
		{
			name: "gossip",
			kind: model.SimpleBroadcast,
			factory: func(t *testing.T) model.Factory {
				f, err := gossip.NewFactory(funcs.Max())
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			schedule: func(n int, seed int64) dynamic.Schedule {
				return dynamic.NewStatic(graph.RandomStronglyConnected(n, n, rand.New(rand.NewSource(seed))))
			},
			rounds: 12,
		},
		{
			name: "minbase",
			kind: model.OutdegreeAware,
			factory: func(t *testing.T) model.Factory {
				f, err := minbase.NewFactory(model.OutdegreeAware)
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			schedule: func(n int, seed int64) dynamic.Schedule {
				return dynamic.NewStatic(graph.RandomStronglyConnected(n, n/2, rand.New(rand.NewSource(seed))))
			},
			rounds: 10,
		},
		{
			name: "freqcalc",
			kind: model.OutdegreeAware,
			factory: func(t *testing.T) model.Factory {
				f, err := freqcalc.NewFactory(model.OutdegreeAware, funcs.Average(), freqcalc.None)
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			schedule: func(n int, seed int64) dynamic.Schedule {
				return dynamic.NewStatic(graph.Ring(n))
			},
			rounds: 3, // minbase+solve rounds are expensive; 3 covers the refinement
		},
		{
			name: "pushsum",
			kind: model.OutdegreeAware,
			factory: func(t *testing.T) model.Factory {
				return pushsum.NewAverageFactory()
			},
			schedule: func(n int, seed int64) dynamic.Schedule {
				return &dynamic.SplitRing{Vertices: n} // dynamic: CSR rebuilt every round
			},
			rounds: 12,
		},
		{
			name: "metropolis",
			kind: model.Symmetric,
			factory: func(t *testing.T) model.Factory {
				f, err := metropolis.NewFactory(metropolis.MaxDegree, 16)
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			schedule: func(n int, seed int64) dynamic.Schedule {
				return &dynamic.RandomConnected{Vertices: n, ExtraEdges: 1, Seed: seed}
			},
			rounds: 12,
		},
	}
}

func caseInputs(n int) []model.Input {
	pattern := []float64{3, 1, 4, 1, 5}
	out := make([]model.Input, n)
	for i := range out {
		out[i] = model.Input{Value: pattern[i%len(pattern)]}
	}
	return out
}
