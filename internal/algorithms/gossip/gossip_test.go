package gossip

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/model"
	"anonnet/internal/testutil"
)

func TestRejectsNonSetBased(t *testing.T) {
	for _, f := range []funcs.Func{funcs.Average(), funcs.Sum(), funcs.Mode()} {
		if _, err := NewFactory(f); err == nil {
			t.Errorf("gossip accepted %v function %q", f.Class, f.Name)
		}
	}
}

func TestComputesSetBasedOnStaticGraphs(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9}
	for _, f := range []funcs.Func{funcs.Min(), funcs.Max(), funcs.SupportSize(), funcs.Range()} {
		factory, err := NewFactory(f)
		if err != nil {
			t.Fatal(err)
		}
		want := f.FromVector(vals)
		for _, kind := range []model.Kind{model.SimpleBroadcast, model.OutdegreeAware, model.OutputPortAware} {
			e := testutil.RunStatic(t, graph.Ring(6), kind, testutil.Inputs(vals...), factory, 10, 1)
			testutil.AllOutputsEqual(t, e.Outputs(), want, f.Name+"/"+kind.String())
		}
		e := testutil.RunStatic(t, graph.BidirectionalRing(6), model.Symmetric, testutil.Inputs(vals...), factory, 10, 1)
		testutil.AllOutputsEqual(t, e.Outputs(), want, f.Name+"/symmetric")
	}
}

func TestStabilizesWithinDiameterRounds(t *testing.T) {
	g := graph.Ring(9) // diameter 8
	vals := []float64{0, 0, 0, 0, 0, 0, 0, 0, 42}
	factory, err := NewFactory(funcs.Max())
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunStatic(t, g, model.SimpleBroadcast, testutil.Inputs(vals...), factory, 0, 2)
	res, err := engine.RunUntilStable(e, model.Discrete, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Fatal("gossip did not stabilize")
	}
	if res.StabilizedAt > g.Diameter() {
		t.Fatalf("stabilized at round %d, want ≤ diameter %d", res.StabilizedAt, g.Diameter())
	}
	testutil.AllOutputsEqual(t, res.Outputs, 42.0, "max")
}

func TestDynamicFiniteDiameter(t *testing.T) {
	// Table 2, broadcast row: set-based functions are computable in
	// dynamic networks of finite dynamic diameter.
	vals := []float64{5, 3, 8, 1, 9, 2, 7, 4}
	factory, err := NewFactory(funcs.Max())
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]dynamic.Schedule{
		"split-ring": &dynamic.SplitRing{Vertices: 8},
		"pairwise":   &dynamic.Pairwise{Vertices: 8, Seed: 7},
		"random":     &dynamic.RandomConnected{Vertices: 8, ExtraEdges: 1, Seed: 2},
	} {
		e := testutil.RunSchedule(t, s, model.SimpleBroadcast, testutil.Inputs(vals...), factory, 80, 3)
		testutil.AllOutputsEqual(t, e.Outputs(), 9.0, name)
	}
}

func TestAsyncStarts(t *testing.T) {
	vals := []float64{1, 7, 3, 5}
	factory, err := NewFactory(funcs.Max())
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{
		Schedule: dynamic.NewStatic(graph.BidirectionalRing(4)),
		Kind:     model.SimpleBroadcast,
		Inputs:   testutil.Inputs(vals...),
		Factory:  factory,
		Starts:   []int{1, 5, 2, 3},
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 20; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	testutil.AllOutputsEqual(t, e.Outputs(), 7.0, "async gossip")
}

func TestNotSelfStabilizing(t *testing.T) {
	// Gossip never forgets: corrupted junk persists — the documented
	// failure mode (flooding is not self-stabilizing).
	vals := []float64{1, 2, 3}
	factory, err := NewFactory(funcs.Max())
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunStatic(t, graph.Ring(3), model.SimpleBroadcast, testutil.Inputs(vals...), factory, 10, 5)
	if got := e.Corrupt(999); got != 3 {
		t.Fatalf("corrupted %d agents, want 3", got)
	}
	for r := 0; r < 20; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range e.Outputs() {
		if o.(float64) == 3.0 {
			t.Fatal("gossip forgot the junk value — it should not be able to")
		}
	}
}

func TestForeignMessagesIgnored(t *testing.T) {
	factory, err := NewFactory(funcs.Max())
	if err != nil {
		t.Fatal(err)
	}
	a := factory(model.Input{Value: 5}).(*Agent)
	a.Receive([]model.Message{"not a value slice", 42, []float64{7}})
	if got := a.Output().(float64); got != 7 {
		t.Fatalf("output %v, want 7", got)
	}
}

// TestSentSetNeverWritten: the engines hand one message to several
// receivers and hold delayed ones across rounds, so a set once sent must
// keep its contents however the sender's own set grows afterwards.
func TestSentSetNeverWritten(t *testing.T) {
	factory, err := NewFactory(funcs.Max())
	if err != nil {
		t.Fatal(err)
	}
	a := factory(model.Input{Value: 5}).(*Agent)
	// Two senders report 9: deduplicating leaves the set spare capacity,
	// which an in-place append would then write into.
	a.Receive([]model.Message{[]float64{1, 9}, []float64{9}})
	sent := a.Send().([]float64)
	want := slices.Clone(sent)
	a.Receive([]model.Message{[]float64{2}, sent})
	a.Corrupt(4)
	if !slices.Equal(sent, want) {
		t.Fatalf("sent set became %v after the sender grew, want %v", sent, want)
	}
	if got, want := a.Send().([]float64), []float64{1, 2, 4.5, 5, 9}; !slices.Equal(got, want) {
		t.Fatalf("seen-set %v, want %v", got, want)
	}
	if got := a.Output(); got != 9.0 {
		t.Fatalf("Output = %v, want 9", got)
	}
}

// TestSignedZeroUnionIsOrderFree: −0 and +0 are one value to the set's
// order, so a set that hears both must hold the same zero whichever
// arrives first — +0 — or the transition would depend on the delivery
// order, which the engines shuffle by seed (§2.2: it must be a function of
// the received multiset). Under min the held zero is every agent's output,
// so each seed's output vector must be the same.
func TestSignedZeroUnionIsOrderFree(t *testing.T) {
	factory, err := NewFactory(funcs.Min())
	if err != nil {
		t.Fatal(err)
	}
	negZero := math.Copysign(0, -1)
	want := ""
	for seed := int64(0); seed < 40; seed++ {
		e, err := engine.New(engine.Config{
			Schedule: dynamic.NewStatic(graph.Star(5)),
			Kind:     model.SimpleBroadcast,
			Inputs:   testutil.Inputs(1, negZero, 0, negZero, 0),
			Factory:  factory,
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		got := fmt.Sprint(e.Outputs())
		if seed == 0 {
			want = got
		} else if got != want {
			t.Fatalf("seed %d: outputs %s, seed 0: %s", seed, got, want)
		}
	}
	for _, order := range [][]model.Message{
		{[]float64{negZero}, []float64{0}},
		{[]float64{0}, []float64{negZero}},
	} {
		a := factory(model.Input{Value: negZero}).(*Agent)
		a.Receive(order)
		if got := a.Send().([]float64); len(got) != 1 || math.Signbit(got[0]) {
			t.Fatalf("after %v the set is %v, want [+0]", order, got)
		}
	}
}
