package engine_test

// Model-conformance harness: for every descriptor in the communication-
// model registry, run a reference algorithm that implements the model's
// sending interface and assert the engines agree byte-for-byte on the
// trace. Unlike the golden tests (which pin specific recorded hashes),
// this harness iterates the registry itself, so registering a new model
// without a conformance entry fails TestRegistryComplete — the registry
// and the test matrix cannot drift apart.

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"anonnet/internal/algorithms/gossip"
	"anonnet/internal/algorithms/metropolis"
	"anonnet/internal/algorithms/minbase"
	"anonnet/internal/algorithms/onebit"
	"anonnet/internal/algorithms/pushsum"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// conformanceCase is one model's reference workload: an algorithm whose
// agents implement the model's sending interface, on a schedule from the
// model's graph class.
type conformanceCase struct {
	factory  func(t *testing.T) model.Factory
	schedule func(n int, seed int64) dynamic.Schedule
	rounds   int
}

// conformanceSuite maps every registered model to its reference workload.
// TestRegistryComplete enforces the mapping stays total as models are
// added.
func conformanceSuite() map[model.Kind]conformanceCase {
	return map[model.Kind]conformanceCase{
		model.SimpleBroadcast: {
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
		model.OutdegreeAware: {
			factory: func(t *testing.T) model.Factory {
				return pushsum.NewAverageFactory()
			},
			schedule: func(n int, seed int64) dynamic.Schedule {
				return &dynamic.SplitRing{Vertices: n} // dynamic: CSR rebuilt every round
			},
			rounds: 12,
		},
		model.OutputPortAware: {
			factory: func(t *testing.T) model.Factory {
				f, err := minbase.NewFactory(model.OutputPortAware)
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			schedule: func(n int, seed int64) dynamic.Schedule {
				return dynamic.NewStatic(graph.Ring(n).AssignPorts())
			},
			rounds: 10,
		},
		model.Symmetric: {
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
		model.OneBitBroadcast: {
			factory: func(t *testing.T) model.Factory {
				f, err := onebit.NewFactory(funcs.Max())
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			schedule: func(n int, seed int64) dynamic.Schedule {
				return dynamic.NewStatic(graph.RandomStronglyConnected(n, n, rand.New(rand.NewSource(seed))))
			},
			rounds: 16, // ≥ 2·D on the random graphs used here
		},
	}
}

// conformanceInputs respects the model's input alphabet: binary for
// one-bit-style models, the shared pattern otherwise.
func conformanceInputs(d *model.Descriptor, n int) []model.Input {
	if !d.BinaryInputs {
		return caseInputs(n)
	}
	out := make([]model.Input, n)
	for i := range out {
		out[i] = model.Input{Value: float64(i % 2)}
	}
	return out
}

// TestRegistryComplete asserts the registry and the conformance suite
// cover each other exactly: every enum Kind has a descriptor, every
// descriptor has a conformance entry, and every conformance entry names a
// registered model. CI runs this as the registry-completeness check.
func TestRegistryComplete(t *testing.T) {
	suite := conformanceSuite()
	descs := model.Descriptors()
	if len(descs) == 0 {
		t.Fatal("no models registered")
	}
	// Every contiguous enum Kind from 1 up to the highest registered value
	// must have a descriptor — a gap means a Kind constant was added
	// without registering it.
	maxKind := descs[len(descs)-1].Kind
	for k := model.Kind(1); k <= maxKind; k++ {
		if _, err := model.Lookup(k); err != nil {
			t.Errorf("kind %d has no registered descriptor: %v", int(k), err)
		}
	}
	for _, d := range descs {
		if _, ok := suite[d.Kind]; !ok {
			t.Errorf("model %q (kind %d) has no conformance suite entry — add one to conformanceSuite()", d.Canon, int(d.Kind))
		}
	}
	for k := range suite {
		if _, err := model.Lookup(k); err != nil {
			t.Errorf("conformance suite names unregistered kind %d: %v", int(k), err)
		}
	}
}

// TestConformanceTraceEquality runs every registered model's reference
// workload under the sequential and sharded engines (plus the
// vectorized kernels when the model is vectorizable and the agents expose
// vector rows) and asserts the traces are byte-identical.
func TestConformanceTraceEquality(t *testing.T) {
	const n = 7
	suite := conformanceSuite()
	for _, d := range model.Descriptors() {
		d := d
		tc, ok := suite[d.Kind]
		if !ok {
			t.Errorf("model %q: no conformance entry", d.Canon)
			continue
		}
		t.Run(d.Canon, func(t *testing.T) {
			cfg := func() engine.Config {
				return engine.Config{
					Schedule: tc.schedule(n, 11),
					Kind:     d.Kind,
					Inputs:   conformanceInputs(d, n),
					Factory:  tc.factory(t),
					Seed:     23,
				}
			}
			runners := []struct {
				name string
				mk   func() (engine.Runner, error)
			}{
				{"seq", func() (engine.Runner, error) { return engine.New(cfg()) }},
				{"shard3", func() (engine.Runner, error) { return engine.NewSharded(cfg(), 3) }},
				{"vec", func() (engine.Runner, error) { return engine.NewVectorized(cfg()) }},
				{"parvec3", func() (engine.Runner, error) { return engine.NewParallelVec(cfg(), 3) }},
			}
			var want string
			for _, rn := range runners {
				r, err := rn.mk()
				if errors.Is(err, engine.ErrNotVectorizable) {
					if d.VecSend == nil {
						continue // model has no vector form; fallback contract covered elsewhere
					}
					// Vectorizable model, non-vector agents: the seq
					// fallback still holds the trace contract.
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", rn.name, err)
				}
				got := traceHash(t, r, tc.rounds)
				r.Close()
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Errorf("%s: trace hash %s, want %s (seq)", rn.name, got, want)
				}
			}
			if want == "" {
				t.Fatal("no engine produced a trace")
			}
		})
	}
}

// TestConformanceErrorsNameModels asserts the conformance rejection names
// the offending interface, the model, and the registered alternatives — a
// user who picks the wrong -kind should be told what would work.
func TestConformanceErrorsNameModels(t *testing.T) {
	// A pushsum agent implements OutdegreeSender but not PortSender, so it
	// fails conformance under the output-port model.
	_, err := engine.New(engine.Config{
		Schedule: dynamic.NewStatic(graph.Ring(4).AssignPorts()),
		Kind:     model.OutputPortAware,
		Inputs:   caseInputs(4),
		Factory:  pushsum.NewAverageFactory(),
		Seed:     1,
	})
	if err == nil {
		t.Fatal("conformance check accepted a non-PortSender under the op model")
	}
	for _, frag := range []string{"model.PortSender", "output port awareness", "registered models"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("conformance error %q does not mention %q", err, frag)
		}
	}
}
