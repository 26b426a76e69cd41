package onebit

import (
	"testing"

	"anonnet/internal/dynamic"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/model"
	"anonnet/internal/testutil"
)

func TestRejectsNonSetBased(t *testing.T) {
	for _, f := range []funcs.Func{funcs.Average(), funcs.Sum(), funcs.Mode()} {
		if _, err := NewFactory(f); err == nil {
			t.Errorf("onebit accepted %v function %q", f.Class, f.Name)
		}
	}
}

func TestComputesSetBasedOnStaticGraphs(t *testing.T) {
	cases := []struct {
		name string
		vals []float64
	}{
		{"mixed", []float64{1, 0, 0, 1, 0, 1}},
		{"all-ones", []float64{1, 1, 1, 1, 1, 1}},
		{"all-zeros", []float64{0, 0, 0, 0, 0, 0}},
		{"lone-one", []float64{0, 0, 0, 0, 0, 1}},
		{"lone-zero", []float64{1, 1, 1, 1, 1, 0}},
	}
	for _, tc := range cases {
		for _, f := range []funcs.Func{funcs.Min(), funcs.Max(), funcs.SupportSize(), funcs.Range()} {
			factory, err := NewFactory(f)
			if err != nil {
				t.Fatal(err)
			}
			want := f.FromVector(tc.vals)
			// The native model, and the richer paper models the agent also
			// conforms to (it ignores their extra information).
			for _, kind := range []model.Kind{model.OneBitBroadcast, model.SimpleBroadcast, model.OutdegreeAware, model.OutputPortAware} {
				e := testutil.RunStatic(t, graph.Ring(6), kind, testutil.Inputs(tc.vals...), factory, 20, 1)
				testutil.AllOutputsEqual(t, e.Outputs(), want, tc.name+"/"+f.Name+"/"+kind.String())
			}
			e := testutil.RunStatic(t, graph.BidirectionalRing(6), model.Symmetric, testutil.Inputs(tc.vals...), factory, 20, 1)
			testutil.AllOutputsEqual(t, e.Outputs(), want, tc.name+"/"+f.Name+"/symmetric")
		}
	}
}

func TestStabilizesWithinTwiceDiameterRounds(t *testing.T) {
	// Both floods must cross the network, and each only floods on every
	// other round, so stabilization takes at most 2·D rounds — twice
	// gossip's bound, the price of the one-bit bandwidth.
	g := graph.Ring(9) // diameter 8
	vals := []float64{0, 0, 0, 0, 0, 0, 0, 0, 1}
	factory, err := NewFactory(funcs.Max())
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunStatic(t, g, model.OneBitBroadcast, testutil.Inputs(vals...), factory, 2*g.Diameter(), 2)
	testutil.AllOutputsEqual(t, e.Outputs(), 1.0, "max after 2D rounds")
}

func TestDynamicFiniteDiameter(t *testing.T) {
	// Table 2, one-bit row, on schedules connected every round. The
	// alternating flood has period 2, so period-2 schedules (SplitRing)
	// can resonate with it — the documented limitation; RandomConnected
	// and static-as-dynamic schedules are safe.
	vals := []float64{1, 0, 0, 1, 0, 0, 1, 0}
	for _, f := range []funcs.Func{funcs.Min(), funcs.Max(), funcs.SupportSize()} {
		factory, err := NewFactory(f)
		if err != nil {
			t.Fatal(err)
		}
		want := f.FromVector(vals)
		for name, s := range map[string]dynamic.Schedule{
			"random":  &dynamic.RandomConnected{Vertices: 8, ExtraEdges: 1, Seed: 2},
			"random2": &dynamic.RandomConnected{Vertices: 8, ExtraEdges: 2, Seed: 11},
		} {
			e := testutil.RunSchedule(t, s, model.OneBitBroadcast, testutil.Inputs(vals...), factory, 80, 3)
			testutil.AllOutputsEqual(t, e.Outputs(), want, f.Name+"/"+name)
		}
	}
}

func TestNotSelfStabilizing(t *testing.T) {
	// Parity flooding never forgets, like gossip: a corrupted OR
	// accumulator claiming a phantom 1 persists forever.
	vals := []float64{0, 0, 0}
	factory, err := NewFactory(funcs.Max())
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunStatic(t, graph.Ring(3), model.OneBitBroadcast, testutil.Inputs(vals...), factory, 10, 5)
	if got := e.Corrupt(1); got != 3 { // junk&1 != 0 → or = true everywhere
		t.Fatalf("corrupted %d agents, want 3", got)
	}
	for r := 0; r < 20; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range e.Outputs() {
		if o.(float64) == 0.0 {
			t.Fatal("onebit forgot the corrupted OR bit — it should not be able to")
		}
	}
}

func TestForeignMessagesIgnored(t *testing.T) {
	factory, err := NewFactory(funcs.Max())
	if err != nil {
		t.Fatal(err)
	}
	a := factory(model.Input{Value: 0}).(*Agent)
	a.Receive([]model.Message{"not a bit", 42, model.Bit(true)})
	if got := a.Output().(float64); got != 1 {
		t.Fatalf("output %v, want 1 (the OR flood saw a true bit)", got)
	}
}

func TestWireFormatIsOneBit(t *testing.T) {
	// The model contract: every message on the wire is a model.Bit.
	factory, err := NewFactory(funcs.Max())
	if err != nil {
		t.Fatal(err)
	}
	a := factory(model.Input{Value: 1}).(*Agent)
	if _, ok := a.Send().(model.Bit); !ok {
		t.Fatalf("Send returned %T, want model.Bit", a.Send())
	}
	if !a.SendBit() {
		t.Fatal("agent with input 1 should send a 1 bit in the OR phase")
	}
}

// TestOutputBuildsNoMultiset: Output evaluates f on one of three shared
// Set views, so in every accumulator state — the corrupted "no input"
// one included, which reads as {0} — it allocates no more than boxing
// its result does.
func TestOutputBuildsNoMultiset(t *testing.T) {
	factory, err := NewFactory(funcs.Range())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		or, and bool
		set     []float64
	}{
		{false, false, []float64{0}},
		{true, false, []float64{0, 1}},
		{true, true, []float64{1}},
		{false, true, []float64{0}},
	} {
		a := factory(model.Input{}).(*Agent)
		a.or, a.and = tc.or, tc.and
		want := funcs.Range().FromVector(tc.set)
		var sink model.Value
		boxing := testing.AllocsPerRun(100, func() { sink = model.Value(want) })
		if allocs := testing.AllocsPerRun(100, func() { sink = a.Output() }); allocs > boxing {
			t.Errorf("or=%v and=%v: Output allocates %v times, boxing its result %v", tc.or, tc.and, allocs, boxing)
		}
		if got := a.Output(); got != want {
			t.Errorf("or=%v and=%v: Output = %v, want range%v = %v", tc.or, tc.and, got, tc.set, want)
		}
		_ = sink
	}
}
