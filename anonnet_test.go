package anonnet_test

import (
	"context"
	"testing"

	"anonnet"
)

func TestComputeQuickstart(t *testing.T) {
	setting := anonnet.Setting{Kind: anonnet.OutdegreeAware, Static: true, Row: anonnet.RowNoHelp}
	factory, err := anonnet.NewFactory(anonnet.Average(), setting)
	if err != nil {
		t.Fatal(err)
	}
	res, err := anonnet.Compute(context.Background(), anonnet.Spec{
		Factory:  factory,
		Schedule: anonnet.NewStatic(anonnet.Ring(8)),
		Inputs:   anonnet.Inputs(3, 1, 4, 1, 5, 9, 2, 6),
		Kind:     setting.Kind,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Fatalf("did not stabilize in %d rounds", res.Rounds)
	}
	for i, o := range res.Outputs {
		if o.(float64) != 3.875 {
			t.Fatalf("agent %d output %v, want 3.875", i, o)
		}
	}
}

func TestComputeEngineOption(t *testing.T) {
	setting := anonnet.Setting{Kind: anonnet.OutdegreeAware, Static: true, Row: anonnet.RowNoHelp}
	factory, err := anonnet.NewFactory(anonnet.Average(), setting)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ...anonnet.Option) *anonnet.ComputeResult {
		opts = append(opts, anonnet.WithSeed(42))
		res, err := anonnet.Compute(context.Background(), anonnet.Spec{
			Factory:  factory,
			Schedule: anonnet.NewStatic(anonnet.BidirectionalRing(6)),
			Inputs:   anonnet.Inputs(1, 2, 3, 4, 5, 6),
			Kind:     setting.Kind,
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(anonnet.WithEngine(anonnet.Sequential))
	shd := run(anonnet.WithEngine(anonnet.Sharded), anonnet.WithParallelism(3))
	// The static minbase pipeline is not vectorizable, so Vectorized
	// exercises the silent fallback — still byte-identical to seq —
	// with and without parallelism.
	vec := run(anonnet.WithEngine(anonnet.Vectorized))
	pvc := run(anonnet.WithEngine(anonnet.Vectorized), anonnet.WithParallelism(2))
	for _, other := range []*anonnet.ComputeResult{shd, vec, pvc} {
		if seq.Rounds != other.Rounds || seq.StabilizedAt != other.StabilizedAt {
			t.Fatalf("engines disagree: seq %+v vs %+v", seq, other)
		}
		for i := range seq.Outputs {
			if seq.Outputs[i] != other.Outputs[i] {
				t.Fatalf("output %d differs: %v vs %v", i, seq.Outputs[i], other.Outputs[i])
			}
		}
	}
}

// TestComputeVectorizedKernel runs the facade on a workload the kernel
// actually accepts (dynamic Push-Sum is a model.VectorAgent), so no
// fallback: the flat-buffer engine itself must match the sequential one.
func TestComputeVectorizedKernel(t *testing.T) {
	setting := anonnet.Setting{Kind: anonnet.OutdegreeAware, Static: false, Row: anonnet.RowNoHelp}
	factory, err := anonnet.NewFactory(anonnet.Average(), setting)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ...anonnet.Option) *anonnet.ComputeResult {
		opts = append(opts, anonnet.WithSeed(7), anonnet.WithMaxRounds(2000))
		res, err := anonnet.Compute(context.Background(), anonnet.Spec{
			Factory:  factory,
			Schedule: &anonnet.SplitRing{Vertices: 8},
			Inputs:   anonnet.Inputs(3, 1, 4, 1, 5, 9, 2, 6),
			Kind:     setting.Kind,
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(anonnet.WithEngine(anonnet.Sequential))
	vec := run(anonnet.WithEngine(anonnet.Vectorized))
	// WithParallelism routes to the parallel vectorized kernel; the trace
	// contract makes it indistinguishable from the others.
	pvc := run(anonnet.WithEngine(anonnet.Vectorized), anonnet.WithParallelism(3))
	for _, other := range []*anonnet.ComputeResult{vec, pvc} {
		if seq.Rounds != other.Rounds || seq.StabilizedAt != other.StabilizedAt {
			t.Fatalf("engines disagree: seq %+v vs %+v", seq, other)
		}
		for i := range seq.Outputs {
			if seq.Outputs[i] != other.Outputs[i] {
				t.Fatalf("output %d differs: %v vs %v", i, seq.Outputs[i], other.Outputs[i])
			}
		}
	}
}

// TestParseEngineKind pins the shared-name-table round trip on the facade.
func TestParseEngineKind(t *testing.T) {
	for _, k := range []anonnet.EngineKind{anonnet.Sequential, anonnet.Sharded, anonnet.Vectorized} {
		got, err := anonnet.ParseEngineKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseEngineKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if k, err := anonnet.ParseEngineKind("Vectorized"); err != nil || k != anonnet.Vectorized {
		t.Fatalf("long alias: %v, %v", k, err)
	}
	// The retired concurrent engine's names select the sharded one.
	for _, name := range []string{"conc", "concurrent"} {
		if k, err := anonnet.ParseEngineKind(name); err != nil || k != anonnet.Sharded {
			t.Fatalf("ParseEngineKind(%q) = %v, %v; want Sharded", name, k, err)
		}
	}
	if k, err := anonnet.ParseEngineKind(""); err != nil || k != anonnet.Sequential {
		t.Fatalf("empty name: %v, %v", k, err)
	}
	if _, err := anonnet.ParseEngineKind("turbo"); err == nil {
		t.Fatal("want error for unknown engine name")
	}
}

func TestComputeOnRound(t *testing.T) {
	setting := anonnet.Setting{Kind: anonnet.OutdegreeAware, Static: true, Row: anonnet.RowNoHelp}
	factory, err := anonnet.NewFactory(anonnet.Average(), setting)
	if err != nil {
		t.Fatal(err)
	}
	var rounds []int
	res, err := anonnet.Compute(context.Background(), anonnet.Spec{
		Factory:  factory,
		Schedule: anonnet.NewStatic(anonnet.Ring(4)),
		Inputs:   anonnet.Inputs(1, 2, 3, 4),
		Kind:     setting.Kind,
	}, anonnet.WithOnRound(func(round int, outputs []anonnet.Value) {
		rounds = append(rounds, round)
		if len(outputs) != 4 {
			t.Errorf("round %d: %d outputs, want 4", round, len(outputs))
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != res.Rounds {
		t.Fatalf("observer saw %d rounds, engine ran %d", len(rounds), res.Rounds)
	}
	for i, r := range rounds {
		if r != i+1 {
			t.Fatalf("observer rounds %v not consecutive from 1", rounds)
		}
	}
}

func TestComputeRejectsForbiddenCell(t *testing.T) {
	_, err := anonnet.NewFactory(anonnet.Sum(),
		anonnet.Setting{Kind: anonnet.OutdegreeAware, Static: true, Row: anonnet.RowNoHelp})
	if err == nil {
		t.Fatal("sum without help must be rejected (Theorem 4.1)")
	}
}

func TestTablesExposed(t *testing.T) {
	if c := anonnet.StaticCell(anonnet.Symmetric, anonnet.RowSize); c.Class != anonnet.MultisetBased {
		t.Fatalf("Table 1 sym/size = %v", c)
	}
	if !anonnet.Computable(anonnet.SetBased, anonnet.SimpleBroadcast, anonnet.RowNoHelp, true) {
		t.Fatal("set-based by broadcast must be computable")
	}
}

func TestLeaderCountExample(t *testing.T) {
	// Counting with one leader on a dynamic network (§5.5).
	setting := anonnet.Setting{Kind: anonnet.OutdegreeAware, Static: false, Row: anonnet.RowLeader, Leaders: 1}
	factory, err := anonnet.NewFactory(anonnet.Count(), setting)
	if err != nil {
		t.Fatal(err)
	}
	inputs := anonnet.MarkLeaders(anonnet.Inputs(7, 7, 7, 7, 7, 7), 0)
	res, err := anonnet.Compute(context.Background(), anonnet.Spec{
		Factory:  factory,
		Schedule: &anonnet.RandomConnected{Vertices: 6, ExtraEdges: 1, Seed: 2},
		Inputs:   inputs,
		Kind:     setting.Kind,
	}, anonnet.WithMaxRounds(3000), anonnet.WithPatience(200))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outputs {
		if o.(float64) != 6 {
			t.Fatalf("agent %d counted %v, want 6", i, o)
		}
	}
}

func TestComputeWithFaults(t *testing.T) {
	// Metropolis max on a symmetric dynamic network survives drops, stalls,
	// and guarded churn; equal (seed, plan) pairs agree across engines.
	setting := anonnet.Setting{Kind: anonnet.Symmetric, Row: anonnet.RowSize, KnownN: 6}
	factory, err := anonnet.NewFactory(anonnet.Max(), setting)
	if err != nil {
		t.Fatal(err)
	}
	plan := anonnet.FaultPlan{
		Drop:  0.2,
		Stall: 0.1,
		Churn: &anonnet.ChurnPlan{Drop: 0.3, Guard: anonnet.GuardRepair},
	}
	run := func(opts ...anonnet.Option) *anonnet.ComputeResult {
		opts = append(opts, anonnet.WithSeed(7), anonnet.WithFaults(plan), anonnet.WithMaxRounds(300))
		res, err := anonnet.Compute(context.Background(), anonnet.Spec{
			Factory:  factory,
			Schedule: anonnet.NewStatic(anonnet.BidirectionalRing(6)),
			Inputs:   anonnet.Inputs(1, 7, 3, 2, 5, 4),
			Kind:     setting.Kind,
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(anonnet.WithEngine(anonnet.Sequential))
	shd := run(anonnet.WithEngine(anonnet.Sharded), anonnet.WithParallelism(3))
	for i := range seq.Outputs {
		if seq.Outputs[i] != shd.Outputs[i] {
			t.Fatalf("faulted engines disagree at %d: %v vs %v", i, seq.Outputs[i], shd.Outputs[i])
		}
		if seq.Outputs[i].(float64) != 7 {
			t.Fatalf("agent %d output %v under faults, want max 7", i, seq.Outputs[i])
		}
	}
	if seq.Rounds != shd.Rounds {
		t.Fatalf("faulted engines ran different round counts: %d vs %d", seq.Rounds, shd.Rounds)
	}
}

func TestComputeWithFaultsInvalidPlan(t *testing.T) {
	setting := anonnet.Setting{Kind: anonnet.OutdegreeAware, Static: true, Row: anonnet.RowNoHelp}
	factory, err := anonnet.NewFactory(anonnet.Average(), setting)
	if err != nil {
		t.Fatal(err)
	}
	_, err = anonnet.Compute(context.Background(), anonnet.Spec{
		Factory:  factory,
		Schedule: anonnet.NewStatic(anonnet.Ring(4)),
		Inputs:   anonnet.Inputs(1, 2, 3, 4),
		Kind:     setting.Kind,
	}, anonnet.WithFaults(anonnet.FaultPlan{Drop: 2}))
	if err == nil {
		t.Fatal("out-of-range drop probability accepted")
	}
}
