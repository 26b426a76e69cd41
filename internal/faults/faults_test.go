package faults

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/graph"
)

func TestFaultPlanValidate(t *testing.T) {
	bad := []Plan{
		{Drop: -0.1},
		{Drop: 1.5},
		{Dup: 2},
		{DelayP: math.NaN()},
		{Stall: -1},
		{Crash: 1.01},
		{DelayMax: -1},
		{DelayMax: 3}, // delay_max without delay_p
		{Churn: &ChurnPlan{Drop: 1.2}},
		{Churn: &ChurnPlan{Drop: 0.2, Window: -1}},
		{Churn: &ChurnPlan{Drop: 0.2, Guard: "maybe"}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d (%+v): Validate accepted an invalid plan", i, p)
		}
	}
	good := []Plan{
		{},
		{Drop: 1, Dup: 1, DelayP: 1, DelayMax: 4, Stall: 1, Crash: 1},
		{Churn: &ChurnPlan{Drop: 0.3, Window: 5, Guard: GuardRepair}},
		{Churn: &ChurnPlan{Drop: 0, Guard: GuardReject}},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("plan %d (%+v): Validate rejected a valid plan: %v", i, p, err)
		}
	}
}

func TestFaultPlanIsZero(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.IsZero() {
		t.Error("nil plan should be zero")
	}
	if !(&Plan{}).IsZero() {
		t.Error("empty plan should be zero")
	}
	if !(&Plan{Churn: &ChurnPlan{Guard: GuardRepair}}).IsZero() {
		t.Error("churn with zero drop should be zero")
	}
	nonzero := []Plan{
		{Drop: 0.1}, {Dup: 0.1}, {DelayP: 0.1}, {Stall: 0.1}, {Crash: 0.1},
		{Churn: &ChurnPlan{Drop: 0.1}},
	}
	for i, p := range nonzero {
		if p.IsZero() {
			t.Errorf("plan %d (%+v) should not be zero", i, p)
		}
	}
}

func TestFaultPlanCodecRoundTrip(t *testing.T) {
	in := `{"drop":0.25,"delay_p":0.1,"delay_max":3,"churn":{"drop":0.4,"window":2,"guard":"repair"}}`
	p, err := ParsePlan([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParsePlan(out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatalf("round trip changed the plan: %+v vs %+v", p, p2)
	}
	if _, err := ParsePlan([]byte(`{"dorp":0.1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParsePlan([]byte(`{"drop":7}`)); err == nil {
		t.Fatal("out-of-range probability accepted")
	}
}

func FuzzPlanCodec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"drop":0.5,"dup":0.25,"stall":0.1,"crash":0.05}`))
	f.Add([]byte(`{"delay_p":1,"delay_max":7,"churn":{"drop":0.1,"window":3,"guard":"reject"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return // invalid input is fine; it must only never panic
		}
		out, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshal of accepted plan failed: %v", err)
		}
		p2, err := ParsePlan(out)
		if err != nil {
			t.Fatalf("re-parse of own encoding failed: %v (encoding %s)", err, out)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("codec not a round trip: %+v vs %+v", p, p2)
		}
	})
}

// TestFaultInjectorDeterministic: two injectors from the same (seed, plan)
// agree on every decision; a different seed disagrees somewhere.
func TestFaultInjectorDeterministic(t *testing.T) {
	plan := Plan{Drop: 0.3, Dup: 0.2, DelayP: 0.2, DelayMax: 3, Stall: 0.1, Crash: 0.05}
	a, err := NewInjector(42, plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(42, plan)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewInjector(43, plan)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for round := 1; round <= 20; round++ {
		for src := 0; src < 6; src++ {
			if a.Stalled(round, src) != b.Stalled(round, src) {
				t.Fatalf("Stalled(%d, %d) differs between equal injectors", round, src)
			}
			if a.Restart(round, src) != b.Restart(round, src) {
				t.Fatalf("Restart(%d, %d) differs between equal injectors", round, src)
			}
			for dst := 0; dst < 6; dst++ {
				fa, fb := a.MessageFate(round, src, dst), b.MessageFate(round, src, dst)
				if fa != fb {
					t.Fatalf("MessageFate(%d, %d, %d) differs between equal injectors: %+v vs %+v", round, src, dst, fa, fb)
				}
				if fa != c.MessageFate(round, src, dst) || a.Stalled(round, src) != c.Stalled(round, src) {
					differs = true
				}
			}
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical fault decisions everywhere")
	}
}

// TestFaultInjectorRates checks the hash-based decisions hit their
// configured probabilities empirically.
func TestFaultInjectorRates(t *testing.T) {
	plan := Plan{Drop: 0.3, Stall: 0.5, DelayP: 0.2, DelayMax: 4}
	in, err := NewInjector(7, plan)
	if err != nil {
		t.Fatal(err)
	}
	var drops, delays, total int
	delayLens := map[int]int{}
	for round := 1; round <= 100; round++ {
		for src := 0; src < 10; src++ {
			for dst := 0; dst < 10; dst++ {
				if src == dst {
					continue
				}
				total++
				f := in.MessageFate(round, src, dst)
				if f.Drop {
					drops++
				}
				if f.Delay > 0 {
					delays++
					delayLens[f.Delay]++
					if f.Delay > plan.DelayMax {
						t.Fatalf("delay %d exceeds delay_max %d", f.Delay, plan.DelayMax)
					}
				}
			}
		}
	}
	if rate := float64(drops) / float64(total); math.Abs(rate-0.3) > 0.03 {
		t.Errorf("drop rate %.3f, want ≈ 0.30", rate)
	}
	// Drop preempts delay, so the delay rate is (1-0.3)*0.2 = 0.14.
	if rate := float64(delays) / float64(total); math.Abs(rate-0.14) > 0.03 {
		t.Errorf("delay rate %.3f, want ≈ 0.14", rate)
	}
	for d := 1; d <= plan.DelayMax; d++ {
		if delayLens[d] == 0 {
			t.Errorf("delay length %d never drawn in %d delays", d, delays)
		}
	}
	var stalls int
	for round := 1; round <= 200; round++ {
		for a := 0; a < 10; a++ {
			if in.Stalled(round, a) {
				stalls++
			}
		}
	}
	if rate := float64(stalls) / 2000; math.Abs(rate-0.5) > 0.04 {
		t.Errorf("stall rate %.3f, want ≈ 0.50", rate)
	}
}

func TestFaultInjectorZeroPlanInert(t *testing.T) {
	in, err := NewInjector(99, Plan{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 10; round++ {
		for a := 0; a < 5; a++ {
			if in.Stalled(round, a) || in.Restart(round, a) {
				t.Fatal("zero plan stalled or restarted an agent")
			}
			for b := 0; b < 5; b++ {
				if f := in.MessageFate(round, a, b); f != (engine.Fate{}) {
					t.Fatalf("zero plan produced fate %+v", f)
				}
			}
		}
	}
}

func TestFaultChurnZeroPassThrough(t *testing.T) {
	base := dynamic.NewStatic(graph.Ring(5))
	s, err := WrapSchedule(base, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s != dynamic.Schedule(base) {
		t.Fatal("nil churn plan should return the base schedule unchanged")
	}
	s, err = WrapSchedule(base, 1, &ChurnPlan{Drop: 0})
	if err != nil {
		t.Fatal(err)
	}
	if s != dynamic.Schedule(base) {
		t.Fatal("zero churn plan should return the base schedule unchanged")
	}
}

// TestFaultChurnInvariants: churned graphs keep self-loops, keep symmetry
// of symmetric bases, and under the repair guard stay strongly connected;
// graphs are stable within a window and deterministic across wrappers.
func TestFaultChurnInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := dynamic.NewStatic(graph.RandomSymmetricConnected(12, 6, rng))
	plan := &ChurnPlan{Drop: 0.6, Window: 2, Guard: GuardRepair}
	s, err := WrapSchedule(base, 17, plan)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := WrapSchedule(base, 17, plan)
	if err != nil {
		t.Fatal(err)
	}
	churnedSomewhere := false
	for round := 1; round <= 40; round++ {
		g := s.At(round)
		if g == nil {
			t.Fatalf("round %d: nil graph (err %v)", round, s.(*Churn).Err())
		}
		if !g.HasSelfLoops() {
			t.Fatalf("round %d: churn removed a self-loop", round)
		}
		if !g.IsSymmetric() {
			t.Fatalf("round %d: churn broke symmetry", round)
		}
		if !g.StronglyConnected() {
			t.Fatalf("round %d: repair guard let a disconnected graph through", round)
		}
		if g.M() < base.At(1).M() {
			churnedSomewhere = true
		}
		if s.At(round) != g {
			t.Fatalf("round %d: At not stable within a window", round)
		}
		if w := (round - 1) / 2; round%2 == 1 {
			if s.At(round+1) != g {
				t.Fatalf("window %d: rounds %d and %d disagree", w, round, round+1)
			}
		}
		if !sameGraph(g, s2.At(round)) {
			t.Fatalf("round %d: equal wrappers disagree", round)
		}
	}
	if !churnedSomewhere {
		t.Fatal("drop 0.6 over 20 windows never removed a link")
	}
}

func sameGraph(a, b *graph.Graph) bool {
	return a.N() == b.N() && a.M() == b.M() && reflect.DeepEqual(a.Edges(), b.Edges())
}

func TestFaultChurnRejectGuard(t *testing.T) {
	base := dynamic.NewStatic(graph.Ring(6))
	_, err := WrapSchedule(base, 3, &ChurnPlan{Drop: 1, Guard: GuardReject})
	if err == nil {
		t.Fatal("reject guard accepted a plan that removes every link")
	}
	if !strings.Contains(err.Error(), "disconnects") {
		t.Fatalf("unhelpful reject error: %v", err)
	}
}

func TestFaultChurnRepairRestoresConnectivity(t *testing.T) {
	base := dynamic.NewStatic(graph.Ring(6))
	s, err := WrapSchedule(base, 3, &ChurnPlan{Drop: 1, Guard: GuardRepair})
	if err != nil {
		t.Fatal(err)
	}
	g := s.At(1)
	if g == nil {
		t.Fatalf("repair guard yielded no graph: %v", s.(*Churn).Err())
	}
	if !g.StronglyConnected() {
		t.Fatal("repair guard yielded a disconnected graph")
	}
}
