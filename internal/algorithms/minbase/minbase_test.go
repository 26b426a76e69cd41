package minbase

import (
	"math/rand"
	"strconv"
	"testing"

	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/fibration"
	"anonnet/internal/graph"
	"anonnet/internal/model"
	"anonnet/internal/testutil"
)

func TestEncodeDecodeInput(t *testing.T) {
	cases := []model.Input{
		{Value: 0}, {Value: 1.5}, {Value: -3.25, Leader: true},
		{Value: 0.1}, {Value: 1e300}, {Value: -0},
	}
	for _, in := range cases {
		got, err := DecodeInput(EncodeInput(in))
		if err != nil {
			t.Fatalf("decode(%v): %v", in, err)
		}
		if got != in {
			t.Fatalf("round trip %v → %v", in, got)
		}
	}
	if _, err := DecodeInput("garbage"); err == nil {
		t.Fatal("DecodeInput accepted garbage")
	}
}

func TestLabelDeterministicAndDiscriminating(t *testing.T) {
	s1 := Sig{Value: "v", Out: 2, Prev: "p", In: []InRef{{Prev: "a", Port: 0, Count: 2}}}
	s2 := Sig{Value: "v", Out: 2, Prev: "p", In: []InRef{{Prev: "a", Port: 0, Count: 2}}}
	if Label(s1) != Label(s2) {
		t.Fatal("equal signatures got different labels")
	}
	s3 := s1
	s3.Out = 3
	if Label(s1) == Label(s3) {
		t.Fatal("different signatures got equal labels")
	}
	s4 := Sig{Value: "v", Out: 2, Prev: "p", In: []InRef{{Prev: "a", Port: 0, Count: 1}, {Prev: "a", Port: 1, Count: 1}}}
	if Label(s1) == Label(s4) {
		t.Fatal("different in-structures got equal labels")
	}
}

func TestNewAgentRejectsBroadcast(t *testing.T) {
	if _, err := NewAgent(model.SimpleBroadcast, model.Input{}); err == nil {
		t.Fatal("minbase should reject the simple-broadcast model")
	}
	if _, err := NewFactory(model.SimpleBroadcast); err == nil {
		t.Fatal("NewFactory should reject the simple-broadcast model")
	}
}

// centralizedBaseSize computes the ground-truth minimum base size via the
// fibration package, with the valuation appropriate to the model.
func centralizedBaseSize(t *testing.T, g *graph.Graph, kind model.Kind, inputs []model.Input) int {
	t.Helper()
	if kind == model.OutputPortAware && !g.PortsValid() {
		g = g.AssignPorts()
	}
	labels := make([]string, g.N())
	for v := range labels {
		labels[v] = EncodeInput(inputs[v]) + "|od=" + strconv.Itoa(g.OutDegree(v))
	}
	fib, err := fibration.MinimumBase(g, labels)
	if err != nil {
		t.Fatalf("centralized minimum base: %v", err)
	}
	return fib.Base.N()
}

// minbaseWorkloads enumerates the static networks used across the minbase
// and freqcalc tests. All are strongly connected with self-loops.
type workload struct {
	name   string
	g      *graph.Graph
	inputs []model.Input
	sym    bool // usable under the symmetric model
}

func minbaseWorkloads() []workload {
	rng := rand.New(rand.NewSource(17))
	return []workload{
		{"uniform-ring", graph.Ring(5), testutil.Inputs(2, 2, 2, 2, 2), false},
		{"alt-ring", graph.Ring(6), testutil.Inputs(1, 2, 1, 2, 1, 2), false},
		{"bidi-ring", graph.BidirectionalRing(6), testutil.Inputs(1, 2, 1, 2, 1, 2), true},
		{"star", graph.Star(5), testutil.Inputs(9, 4, 4, 4, 4), true},
		{"path", graph.Path(4), testutil.Inputs(1, 2, 2, 1), true},
		{"hypercube", graph.Hypercube(3), testutil.Inputs(1, 1, 1, 1, 1, 1, 1, 1), true},
		{"torus", graph.Torus(2, 3), testutil.Inputs(3, 3, 3, 3, 3, 3), true},
		{"random-digraph", graph.RandomStronglyConnected(7, 6, rng), testutil.Inputs(1, 5, 5, 2, 1, 5, 2), false},
		{"random-sym", graph.RandomSymmetricConnected(7, 4, rng), testutil.Inputs(4, 4, 1, 1, 4, 4, 1), true},
		{"distinct-values", graph.Ring(4), testutil.Inputs(1, 2, 3, 4), false},
	}
}

func roundsFor(g *graph.Graph) int {
	return 3*g.N() + 4*g.Diameter() + 12
}

func TestDistributedBaseMatchesCentralized(t *testing.T) {
	for _, w := range minbaseWorkloads() {
		for _, kind := range testutil.CapableKinds() {
			if kind == model.Symmetric && !w.sym {
				continue
			}
			factory, err := NewFactory(kind)
			if err != nil {
				t.Fatal(err)
			}
			e := testutil.RunStatic(t, w.g, kind, w.inputs, factory, roundsFor(w.g), 1)
			wantSize := centralizedBaseSize(t, w.g, kind, w.inputs)
			for i := 0; i < e.N(); i++ {
				a := e.Agent(i).(*Agent)
				base, ok := a.CandidateBase()
				if !ok {
					t.Fatalf("%s/%v: agent %d has no candidate after %d rounds", w.name, kind, i, e.Round())
				}
				if base.N() != wantSize {
					t.Errorf("%s/%v: agent %d base has %d vertices, want %d (%v)",
						w.name, kind, i, base.N(), wantSize, base)
					break
				}
			}
		}
	}
}

func TestCandidateStabilizesWithinBound(t *testing.T) {
	// The §4.2 guarantee is stabilization by round n + D (for the
	// infinite-state algorithm); our extractor adds a safety margin, so we
	// check stabilization within n + 3D + 4 and report the measured round
	// in EXPERIMENTS.md via the figures harness.
	for _, w := range minbaseWorkloads() {
		kind := model.OutdegreeAware
		factory, err := NewFactory(kind)
		if err != nil {
			t.Fatal(err)
		}
		n, d := w.g.N(), w.g.Diameter()
		bound := n + 3*d + 4
		e := testutil.RunStatic(t, w.g, kind, w.inputs, factory, bound, 2)
		snapshot := make([]*Base, e.N())
		for i := 0; i < e.N(); i++ {
			base, ok := e.Agent(i).(*Agent).CandidateBase()
			if !ok {
				t.Fatalf("%s: agent %d has no candidate at round %d", w.name, i, bound)
			}
			snapshot[i] = base
		}
		// Run on: the candidate must not change (up to isomorphism — bases
		// are unique only up to isomorphism) for another 2(n+d) rounds.
		for r := 0; r < 2*(n+d); r++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < e.N(); i++ {
			base, _ := e.Agent(i).(*Agent).CandidateBase()
			if !base.Isomorphic(snapshot[i]) {
				t.Errorf("%s: agent %d candidate changed after round %d:\n then: %s\n now:  %s",
					w.name, i, bound, snapshot[i], base)
			}
		}
	}
}

func TestAgentsAgreeOnBase(t *testing.T) {
	for _, w := range minbaseWorkloads() {
		factory, err := NewFactory(model.OutdegreeAware)
		if err != nil {
			t.Fatal(err)
		}
		e := testutil.RunStatic(t, w.g, model.OutdegreeAware, w.inputs, factory, roundsFor(w.g), 3)
		var first *Base
		for i := 0; i < e.N(); i++ {
			base, ok := e.Agent(i).(*Agent).CandidateBase()
			if !ok {
				t.Fatalf("%s: agent %d has no candidate", w.name, i)
			}
			if i == 0 {
				first = base
			} else if !base.Isomorphic(first) {
				t.Errorf("%s: agents 0 and %d disagree:\n%s\n%s", w.name, i, first, base)
			}
		}
	}
}

func TestAsyncStartsTolerated(t *testing.T) {
	g := graph.Ring(6)
	inputs := testutil.Inputs(1, 2, 1, 2, 1, 2)
	factory, err := NewFactory(model.OutdegreeAware)
	if err != nil {
		t.Fatal(err)
	}
	starts := []int{1, 4, 2, 7, 1, 3}
	e, err := engine.New(engine.Config{
		Schedule: dynamic.NewStatic(g),
		Kind:     model.OutdegreeAware,
		Inputs:   inputs,
		Factory:  factory,
		Starts:   starts,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 60; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < e.N(); i++ {
		base, ok := e.Agent(i).(*Agent).CandidateBase()
		if !ok {
			t.Fatalf("agent %d has no candidate", i)
		}
		if base.N() != 2 {
			t.Errorf("agent %d base has %d vertices, want 2 (%v)", i, base.N(), base)
		}
	}
}

func TestCorruptionRecovery(t *testing.T) {
	g := graph.Ring(6)
	inputs := testutil.Inputs(1, 2, 1, 2, 1, 2)
	factory, err := NewFactory(model.OutdegreeAware)
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunStatic(t, g, model.OutdegreeAware, inputs, factory, 30, 4)
	// Scramble two agents mid-run.
	e.Agent(1).(model.Corruptible).Corrupt(12345)
	e.Agent(4).(model.Corruptible).Corrupt(98765)
	// The reset wave floods and recomputation finishes within
	// ~2(n + D) extra rounds.
	for r := 0; r < 80; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < e.N(); i++ {
		a := e.Agent(i).(*Agent)
		if a.Epoch() == 0 {
			t.Errorf("agent %d never adopted the reset epoch", i)
		}
		base, ok := a.CandidateBase()
		if !ok {
			t.Fatalf("agent %d has no candidate after recovery", i)
		}
		if base.N() != 2 {
			t.Errorf("agent %d base has %d vertices after recovery, want 2 (%v)", i, base.N(), base)
		}
	}
}

func TestMergeMsgRejectsForgery(t *testing.T) {
	a, err := NewAgent(model.OutdegreeAware, model.Input{Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	sig := Sig{Value: "v", Out: 2}
	good := &Msg{
		Epoch:   0,
		Hist:    []string{Label(sig)},
		Entries: []Entry{{Key: Key{Level: 0, Label: Label(sig)}, Sig: sig}},
	}
	if !a.mergeMsg(good) {
		t.Fatal("valid message rejected")
	}
	bad := &Msg{
		Epoch:   0,
		Hist:    []string{"deadbeef"},
		Entries: []Entry{{Key: Key{Level: 0, Label: "deadbeef"}, Sig: sig}},
	}
	if a.mergeMsg(bad) {
		t.Fatal("forged label accepted")
	}
	if a.table.Has(Key{Level: 0, Label: "deadbeef"}) {
		t.Fatal("forged entry entered the table")
	}
	missing := &Msg{Epoch: 0, Hist: []string{"nope"}}
	if a.mergeMsg(missing) {
		t.Fatal("unbacked history accepted")
	}
}

func TestExtractBaseEmptyTable(t *testing.T) {
	if _, ok := ExtractBase(nil); ok {
		t.Fatal("ExtractBase(nil) returned a base")
	}
}

func TestTableBasics(t *testing.T) {
	tb := NewTable()
	sig := Sig{Value: "v", Out: 1}
	k := Key{Level: 0, Label: Label(sig)}
	if !tb.add(k, sig) {
		t.Fatal("add failed")
	}
	if tb.add(k, sig) {
		t.Fatal("duplicate add succeeded")
	}
	if got, ok := tb.Get(k); !ok || got.Value != sig.Value || got.Out != sig.Out {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if !tb.validate() {
		t.Fatal("fresh table invalid")
	}
	// In-place corruption must be caught by validate.
	tb.entries[0].Key.Label = "junk"
	if tb.validate() {
		t.Fatal("corrupted table validated")
	}
}

func TestDistributedMatchesReferenceRandomized(t *testing.T) {
	// Randomized sweep: on random strongly connected digraphs with random
	// small-alphabet valuations, every agent's candidate is isomorphic to
	// the centralized reference base.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(6)
		g := graph.RandomStronglyConnected(n, rng.Intn(2*n), rng)
		inputs := make([]model.Input, n)
		for i := range inputs {
			inputs[i] = model.Input{Value: float64(1 + rng.Intn(3))}
		}
		want, _, err := BaseOfGraph(g, inputs)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		factory, err := NewFactory(model.OutdegreeAware)
		if err != nil {
			t.Fatal(err)
		}
		e := testutil.RunStatic(t, g, model.OutdegreeAware, inputs, factory, roundsFor(g), int64(trial))
		for i := 0; i < e.N(); i++ {
			got, ok := e.Agent(i).(*Agent).CandidateBase()
			if !ok {
				t.Fatalf("trial %d: agent %d has no candidate", trial, i)
			}
			if !got.Isomorphic(want) {
				t.Fatalf("trial %d: agent %d base %v not isomorphic to reference %v\ngraph: %v",
					trial, i, got, want, g)
			}
		}
	}
}

func TestReferenceBaseCardinalityIdentity(t *testing.T) {
	// eq. (1) holds on the reference base with the true cardinalities:
	// b_i·z_i = Σ_j d_{i,j}·z_j.
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(7)
		g := graph.RandomStronglyConnected(n, rng.Intn(2*n), rng)
		inputs := make([]model.Input, n)
		for i := range inputs {
			inputs[i] = model.Input{Value: float64(rng.Intn(2))}
		}
		b, fib, err := BaseOfGraph(g, inputs)
		if err != nil {
			t.Fatal(err)
		}
		z := fib.FibreCardinalities()
		for i := 0; i < b.N(); i++ {
			lhs := b.Out[i] * z[i]
			rhs := 0
			for j := 0; j < b.N(); j++ {
				rhs += b.D[i][j] * z[j]
			}
			if lhs != rhs {
				t.Fatalf("trial %d: eq. (1) fails at fibre %d: %d ≠ %d (base %v, z %v)",
					trial, i, lhs, rhs, b, z)
			}
		}
	}
}

func TestBoundedAgentFreezesWithCorrectBase(t *testing.T) {
	// Finite-state variant: with a bound N known, agents freeze after a
	// 2N+2 stable stretch, state stops growing, and the frozen candidate
	// is the true base.
	g := graph.Ring(6)
	inputs := testutil.Inputs(1, 2, 1, 2, 1, 2)
	boundN := 8
	factory, err := NewBoundedFactory(model.OutdegreeAware, boundN)
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunStatic(t, g, model.OutdegreeAware, inputs, factory, 4*(2*boundN+2)+40, 9)
	sizes := make([]int, e.N())
	levels := make([]int, e.N())
	for i := 0; i < e.N(); i++ {
		a := e.Agent(i).(*BoundedAgent)
		if !a.Frozen() {
			t.Fatalf("agent %d not frozen after the budget", i)
		}
		base, ok := a.CandidateBase()
		if !ok || base.N() != 2 {
			t.Fatalf("agent %d frozen candidate wrong: %v", i, base)
		}
		sizes[i] = a.TableSize()
		levels[i] = a.Level()
	}
	// Run much longer: state must not grow at all.
	for r := 0; r < 200; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < e.N(); i++ {
		a := e.Agent(i).(*BoundedAgent)
		if a.TableSize() != sizes[i] || a.Level() != levels[i] {
			t.Fatalf("agent %d state grew while frozen: table %d→%d, level %d→%d",
				i, sizes[i], a.TableSize(), levels[i], a.Level())
		}
	}
}

func TestBoundedAgentUnfreezesOnCorruption(t *testing.T) {
	g := graph.Ring(5)
	inputs := testutil.Inputs(3, 3, 3, 3, 3)
	factory, err := NewBoundedFactory(model.OutdegreeAware, 6)
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunStatic(t, g, model.OutdegreeAware, inputs, factory, 120, 10)
	if !e.Agent(0).(*BoundedAgent).Frozen() {
		t.Fatal("agent 0 should be frozen before corruption")
	}
	e.Agent(0).(model.Corruptible).Corrupt(777)
	for r := 0; r < 150; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < e.N(); i++ {
		a := e.Agent(i).(*BoundedAgent)
		if a.Epoch() == 0 {
			t.Fatalf("agent %d never reset", i)
		}
		base, ok := a.CandidateBase()
		if !ok || base.N() != 1 {
			t.Fatalf("agent %d post-recovery candidate wrong: %v", i, base)
		}
		if !a.Frozen() {
			t.Fatalf("agent %d should have re-frozen after recovery", i)
		}
	}
}

func TestBoundedFactoryValidation(t *testing.T) {
	if _, err := NewBoundedFactory(model.OutdegreeAware, 0); err == nil {
		t.Fatal("bound 0 accepted")
	}
	if _, err := NewBoundedFactory(model.SimpleBroadcast, 5); err == nil {
		t.Fatal("broadcast model accepted")
	}
}

func TestDistributedMatchesReferencePortsAndSymmetric(t *testing.T) {
	// The op and symmetric models against the centralized reference on
	// random networks (the reference refines with ports when present).
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(5)
		inputs := make([]model.Input, n)
		for i := range inputs {
			inputs[i] = model.Input{Value: float64(1 + rng.Intn(2))}
		}
		// Output ports on a random digraph.
		gp := graph.RandomStronglyConnected(n, rng.Intn(2*n), rng).AssignPorts()
		want, _, err := BaseOfGraph(gp, inputs)
		if err != nil {
			t.Fatal(err)
		}
		factory, err := NewFactory(model.OutputPortAware)
		if err != nil {
			t.Fatal(err)
		}
		e := testutil.RunStatic(t, gp, model.OutputPortAware, inputs, factory, roundsFor(gp), int64(trial))
		for i := 0; i < e.N(); i++ {
			got, ok := e.Agent(i).(*Agent).CandidateBase()
			if !ok || got.N() != want.N() {
				t.Fatalf("trial %d (op): agent %d base %v, reference %v", trial, i, got, want)
			}
		}
		// Symmetric model on a random bidirectional graph.
		gs := graph.RandomSymmetricConnected(n, rng.Intn(n), rng)
		wantS, _, err := BaseOfGraph(gs, inputs)
		if err != nil {
			t.Fatal(err)
		}
		factoryS, err := NewFactory(model.Symmetric)
		if err != nil {
			t.Fatal(err)
		}
		eS := testutil.RunStatic(t, gs, model.Symmetric, inputs, factoryS, roundsFor(gs), int64(trial))
		for i := 0; i < eS.N(); i++ {
			got, ok := eS.Agent(i).(*Agent).CandidateBase()
			if !ok || !got.Isomorphic(wantS) {
				t.Fatalf("trial %d (sym): agent %d base %v, reference %v", trial, i, got, wantS)
			}
		}
	}
}
