package freqcalc

import (
	"math/rand"
	"testing"

	"anonnet/internal/algorithms/minbase"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/fibration"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/model"
	"anonnet/internal/testutil"
)

func TestSolveOutdegreeKnownSystems(t *testing.T) {
	// Star base: center fibre z=1, leaf fibre z=4 (Star(5)): center out
	// b0 = 5 (self + 4 leaves), leaves out b1 = 2 (self + center). Base
	// edge counts are in-edges per member: d00=1 (self), d01=1 (each leaf
	// hears the center once), d10=4 (the center hears 4 leaves), d11=1.
	// M = [[-4, 1], [4, -1]]: kernel spanned by (1, 4).
	b := &minbase.Base{
		Values: []float64{9, 4},
		Leader: []bool{false, false},
		Out:    []int{5, 2},
		D:      [][]int{{1, 1}, {4, 1}},
	}
	z, err := SolveOutdegree(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(z) != 2 || z[0] != 1 || z[1] != 4 {
		t.Fatalf("z = %v, want [1 4]", z)
	}
}

func TestSolveOutdegreeRejectsRankDeficient(t *testing.T) {
	// An all-zero M has a 2-dimensional kernel for m = 2.
	b := &minbase.Base{
		Values: []float64{1, 2},
		Leader: []bool{false, false},
		Out:    []int{1, 1},
		D:      [][]int{{1, 0}, {0, 1}},
	}
	if _, err := SolveOutdegree(b); err == nil {
		t.Fatal("rank-deficient system accepted")
	}
}

func TestSolvePorts(t *testing.T) {
	good := &minbase.Base{
		Values: []float64{1, 2},
		Leader: []bool{false, false},
		Out:    []int{2, 2},
		D:      [][]int{{1, 1}, {1, 1}},
	}
	z, err := SolvePorts(good)
	if err != nil {
		t.Fatal(err)
	}
	if z[0] != 1 || z[1] != 1 {
		t.Fatalf("z = %v, want [1 1]", z)
	}
	bad := &minbase.Base{
		Values: []float64{1, 2},
		Leader: []bool{false, false},
		Out:    []int{3, 2},
		D:      [][]int{{1, 1}, {1, 1}},
	}
	if _, err := SolvePorts(bad); err == nil {
		t.Fatal("non-covering accepted")
	}
}

func TestSolveSymmetric(t *testing.T) {
	// Star base again, as a symmetric quotient: d01·z1 = d10·z0 … with
	// d01 = 1 (one center→leaf base edge), d10 = 1: z = (1, 1)?? No: the
	// star's quotient has d01 = 1, d10 = 4? — the leaf class has 4 members
	// each with one edge to the center, so the center has 4 in-edges from
	// the leaf class: d10 = 4, d01 = 1 and z1/z0 = d01… eq. (4):
	// d01·z1 = d10·z0 ⟹ z1 = 4·z0.
	b := &minbase.Base{
		Values: []float64{9, 4},
		Leader: []bool{false, false},
		Out:    []int{5, 2},
		D:      [][]int{{1, 1}, {4, 1}},
	}
	z, err := SolveSymmetric(b)
	if err != nil {
		t.Fatal(err)
	}
	if z[0] != 1 || z[1] != 4 {
		t.Fatalf("z = %v, want [1 4]", z)
	}
}

func TestSolveSymmetricRejectsAsymmetricSupport(t *testing.T) {
	b := &minbase.Base{
		Values: []float64{1, 2},
		Leader: []bool{false, false},
		Out:    []int{2, 1},
		D:      [][]int{{1, 1}, {0, 1}},
	}
	if _, err := SolveSymmetric(b); err == nil {
		t.Fatal("asymmetric support accepted")
	}
}

func TestSolveSymmetricDetectsImbalance(t *testing.T) {
	// A triangle of ratios that cannot be consistent: z1 = 2·z0,
	// z2 = 2·z1 = 4·z0, but the 0—2 edge demands z2 = z0.
	b := &minbase.Base{
		Values: []float64{1, 2, 3},
		Leader: []bool{false, false, false},
		Out:    []int{3, 3, 3},
		D: [][]int{
			{1, 1, 1},
			{2, 1, 1},
			{1, 2, 1},
		},
	}
	if _, err := SolveSymmetric(b); err == nil {
		t.Fatal("detailed-balance violation accepted")
	}
}

// --- end-to-end Theorem 4.1 ---

type workload struct {
	name   string
	g      *graph.Graph
	inputs []model.Input
	sym    bool
}

func workloads() []workload {
	rng := rand.New(rand.NewSource(17))
	return []workload{
		{"alt-ring", graph.Ring(6), testutil.Inputs(1, 2, 1, 2, 1, 2), false},
		{"bidi-ring", graph.BidirectionalRing(6), testutil.Inputs(1, 2, 1, 2, 1, 2), true},
		{"star", graph.Star(5), testutil.Inputs(9, 4, 4, 4, 4), true},
		{"path", graph.Path(4), testutil.Inputs(1, 2, 2, 1), true},
		{"hypercube", graph.Hypercube(3), testutil.Inputs(5, 5, 5, 5, 5, 5, 5, 5), true},
		{"random-digraph", graph.RandomStronglyConnected(7, 6, rng), testutil.Inputs(1, 5, 5, 2, 1, 5, 2), false},
		{"random-sym", graph.RandomSymmetricConnected(7, 4, rng), testutil.Inputs(4, 4, 1, 1, 4, 4, 1), true},
		{"distinct", graph.Ring(4), testutil.Inputs(1, 2, 3, 4), false},
	}
}

func average(inputs []model.Input) float64 {
	s := 0.0
	for _, in := range inputs {
		s += in.Value
	}
	return s / float64(len(inputs))
}

func rounds(g *graph.Graph) int { return 3*g.N() + 4*g.Diameter() + 12 }

func TestTheorem41AverageAllModels(t *testing.T) {
	for _, w := range workloads() {
		for _, kind := range testutil.CapableKinds() {
			if kind == model.Symmetric && !w.sym {
				continue
			}
			factory, err := NewFactory(kind, funcs.Average(), None)
			if err != nil {
				t.Fatal(err)
			}
			e := testutil.RunStatic(t, w.g, kind, w.inputs, factory, rounds(w.g), 1)
			testutil.AllOutputsNear(t, e.Outputs(), average(w.inputs), 1e-9, w.name+"/"+kind.String())
		}
	}
}

func TestTheorem41FrequencyBasedCatalog(t *testing.T) {
	w := workload{"alt-ring", graph.Ring(6), testutil.Inputs(1, 2, 1, 2, 2, 1), false}
	for _, f := range []funcs.Func{funcs.Mode(), funcs.Median(), funcs.FrequencyOf(2), funcs.ThresholdFreq(2, 0.4)} {
		factory, err := NewFactory(model.OutdegreeAware, f, None)
		if err != nil {
			t.Fatal(err)
		}
		want := f.Eval(multisetOf(w.inputs))
		e := testutil.RunStatic(t, w.g, model.OutdegreeAware, w.inputs, factory, rounds(w.g), 2)
		testutil.AllOutputsNear(t, e.Outputs(), want, 1e-9, f.Name)
	}
}

func multisetOf(inputs []model.Input) *funcs.Args {
	vals := make([]float64, len(inputs))
	for i, in := range inputs {
		vals[i] = in.Value
	}
	return funcs.NewArgs(vals...)
}

func TestRejectsMultisetBasedWithoutHelp(t *testing.T) {
	if _, err := NewFactory(model.OutdegreeAware, funcs.Sum(), None); err == nil {
		t.Fatal("sum accepted without help — Theorem 4.1 forbids it")
	}
	if _, err := NewFactory(model.SimpleBroadcast, funcs.Average(), None); err == nil {
		t.Fatal("minbase factory accepted the broadcast model")
	}
}

func TestCorollary43SumWithKnownSize(t *testing.T) {
	for _, w := range workloads() {
		n := len(w.inputs)
		factory, err := NewFactory(model.OutdegreeAware, funcs.Sum(), Help{KnownN: n})
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for _, in := range w.inputs {
			want += in.Value
		}
		e := testutil.RunStatic(t, w.g, model.OutdegreeAware, w.inputs, factory, rounds(w.g), 3)
		testutil.AllOutputsNear(t, e.Outputs(), want, 1e-9, w.name+"/sum")
	}
}

func TestCorollary43CountWithKnownSize(t *testing.T) {
	w := workloads()[0]
	n := len(w.inputs)
	factory, err := NewFactory(model.OutdegreeAware, funcs.Count(), Help{KnownN: n})
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunStatic(t, w.g, model.OutdegreeAware, w.inputs, factory, rounds(w.g), 4)
	testutil.AllOutputsNear(t, e.Outputs(), float64(n), 1e-9, "count")
}

func TestCorollary44LeaderMultiset(t *testing.T) {
	// One leader on various graphs: sum and count become computable.
	for _, w := range workloads() {
		inputs := testutil.WithLeaders(w.inputs, 0)
		factory, err := NewFactory(model.OutdegreeAware, funcs.Sum(), Help{Leaders: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for _, in := range inputs {
			want += in.Value
		}
		e := testutil.RunStatic(t, w.g, model.OutdegreeAware, inputs, factory, rounds(w.g), 5)
		testutil.AllOutputsNear(t, e.Outputs(), want, 1e-9, w.name+"/leader-sum")
	}
}

func TestMultipleLeaders(t *testing.T) {
	// ℓ = 2 known leaders (eq. (5)).
	g := graph.BidirectionalRing(6)
	inputs := testutil.WithLeaders(testutil.Inputs(1, 2, 1, 2, 1, 2), 0, 3)
	factory, err := NewFactory(model.OutdegreeAware, funcs.Count(), Help{Leaders: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunStatic(t, g, model.OutdegreeAware, inputs, factory, rounds(g), 6)
	testutil.AllOutputsNear(t, e.Outputs(), 6, 1e-9, "two-leader count")
}

func TestFrequencyInvarianceAcrossScaledNetworks(t *testing.T) {
	// The same frequency function on R_6 and R_9 (inputs 1,2,2 repeated):
	// a frequency-based output must be identical — the positive face of
	// the §4.1 impossibility.
	factory, err := NewFactory(model.OutdegreeAware, funcs.Average(), None)
	if err != nil {
		t.Fatal(err)
	}
	run := func(n int) float64 {
		inputs := make([]model.Input, n)
		for i := range inputs {
			inputs[i] = model.Input{Value: []float64{1, 2, 2}[i%3]}
		}
		g := graph.Ring(n)
		e := testutil.RunStatic(t, g, model.OutdegreeAware, inputs, factory, rounds(g), 7)
		return e.Outputs()[0].(float64)
	}
	if a, b := run(6), run(9); a != b {
		t.Fatalf("frequency-equivalent inputs gave different outputs: %v vs %v", a, b)
	}
}

func TestAsyncStartsEventuallyCorrect(t *testing.T) {
	g := graph.Ring(6)
	inputs := testutil.Inputs(1, 2, 1, 2, 1, 2)
	factory, err := NewFactory(model.OutdegreeAware, funcs.Average(), None)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{
		Schedule: dynamic.NewStatic(g),
		Kind:     model.OutdegreeAware,
		Inputs:   inputs,
		Factory:  factory,
		Starts:   []int{1, 5, 2, 8, 1, 3},
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 80; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	testutil.AllOutputsNear(t, e.Outputs(), 1.5, 1e-9, "async average")
}

func TestSelfStabilizationRecovery(t *testing.T) {
	g := graph.BidirectionalRing(6)
	inputs := testutil.Inputs(1, 2, 1, 2, 1, 2)
	factory, err := NewFactory(model.OutdegreeAware, funcs.Average(), None)
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunStatic(t, g, model.OutdegreeAware, inputs, factory, 40, 12)
	e.Corrupt(424242)
	for r := 0; r < 80; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	testutil.AllOutputsNear(t, e.Outputs(), 1.5, 1e-9, "post-corruption average")
}

func TestCoveredNetworkSameOutput(t *testing.T) {
	// A 3-fold cover of a labelled base computes the same value as the
	// base: fibre structure is invisible to frequency-based functions.
	rng := rand.New(rand.NewSource(33))
	base := graph.RandomStronglyConnected(4, 3, rng)
	fibb, err := fibration.LiftCover(base, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	baseInputs := testutil.Inputs(1, 2, 2, 4)
	totalInputs := make([]model.Input, fibb.Total.N())
	for v, bv := range fibb.VertexMap {
		totalInputs[v] = baseInputs[bv]
	}
	factory, err := NewFactory(model.OutdegreeAware, funcs.Average(), None)
	if err != nil {
		t.Fatal(err)
	}
	eBase := testutil.RunStatic(t, base, model.OutdegreeAware, baseInputs, factory, rounds(base)+10, 13)
	eTotal := testutil.RunStatic(t, fibb.Total, model.OutdegreeAware, totalInputs, factory, rounds(fibb.Total)+10, 14)
	want := average(baseInputs)
	testutil.AllOutputsNear(t, eBase.Outputs(), want, 1e-9, "base")
	testutil.AllOutputsNear(t, eTotal.Outputs(), want, 1e-9, "cover")
}

func TestKernelRecoversTrueCardinalitiesRandomized(t *testing.T) {
	// Property (eq. (2)): on random valued digraphs, the coprime kernel
	// vector z of the reference base is proportional to the true fibre
	// cardinalities: |φ⁻¹(i)| = k·z_i for a single positive integer k.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(8)
		g := graph.RandomStronglyConnected(n, rng.Intn(2*n), rng)
		inputs := make([]model.Input, n)
		for i := range inputs {
			inputs[i] = model.Input{Value: float64(rng.Intn(2))}
		}
		base, fib, err := minbase.BaseOfGraph(g, inputs)
		if err != nil {
			t.Fatal(err)
		}
		z, err := SolveOutdegree(base)
		if err != nil {
			t.Fatalf("trial %d: solve: %v (base %v)", trial, err, base)
		}
		cards := fib.FibreCardinalities()
		if cards[0]%z[0] != 0 {
			t.Fatalf("trial %d: z₀=%d does not divide |fibre₀|=%d", trial, z[0], cards[0])
		}
		k := cards[0] / z[0]
		for i := range z {
			if cards[i] != k*z[i] {
				t.Fatalf("trial %d: eq. (2) fails: cards=%v, z=%v, k=%d", trial, cards, z, k)
			}
		}
	}
}

func TestSymmetricSolverAgreesWithGaussianRandomized(t *testing.T) {
	// On random symmetric networks the eq. (4) spanning-tree solution and
	// the eq. (1) Gaussian solution must coincide — the paper presents them
	// as interchangeable routes to the same cardinalities.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(8)
		g := graph.RandomSymmetricConnected(n, rng.Intn(n), rng)
		inputs := make([]model.Input, n)
		for i := range inputs {
			inputs[i] = model.Input{Value: float64(rng.Intn(2))}
		}
		base, _, err := minbase.BaseOfGraph(g, inputs)
		if err != nil {
			t.Fatal(err)
		}
		zg, err := SolveOutdegree(base)
		if err != nil {
			t.Fatalf("trial %d: gaussian: %v", trial, err)
		}
		zs, err := SolveSymmetric(base)
		if err != nil {
			t.Fatalf("trial %d: symmetric: %v (base %v)", trial, err, base)
		}
		for i := range zg {
			if zg[i] != zs[i] {
				t.Fatalf("trial %d: solvers disagree: gaussian %v vs symmetric %v", trial, zg, zs)
			}
		}
	}
}

func TestCorollary42FiniteStateWithBound(t *testing.T) {
	// With a bound known (RowBound), the pipeline uses the finite-state
	// minimum-base variant: same exact answer, state frozen after
	// stabilization.
	g := graph.BidirectionalRing(6)
	inputs := testutil.Inputs(1, 2, 1, 2, 1, 2)
	factory, err := NewFactory(model.OutdegreeAware, funcs.Average(), Help{BoundN: 8})
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunStatic(t, g, model.OutdegreeAware, inputs, factory, 150, 15)
	testutil.AllOutputsNear(t, e.Outputs(), 1.5, 1e-9, "bounded average")
	for i := 0; i < e.N(); i++ {
		mb, ok := e.Agent(i).(*Agent).Minbase().(*minbase.BoundedAgent)
		if !ok {
			t.Fatalf("agent %d does not use the bounded automaton", i)
		}
		if !mb.Frozen() {
			t.Fatalf("agent %d not frozen after 150 rounds", i)
		}
	}
}

func TestHelpValidation(t *testing.T) {
	for _, h := range []Help{{BoundN: -1}, {KnownN: -2}, {Leaders: -3}} {
		if _, err := NewFactory(model.OutdegreeAware, funcs.Average(), h); err == nil {
			t.Errorf("negative help %+v accepted", h)
		}
	}
}
