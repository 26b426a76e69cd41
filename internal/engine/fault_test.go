package engine_test

// Fault-injection property tests: every runner must stay trace-identical
// to the sequential engine under any deterministic injector, scripted fault channels
// must have exactly the §2.2-relative semantics documented in
// internal/faults, and a zero plan must be indistinguishable from no plan.

import (
	"reflect"
	"testing"

	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/faults"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// scriptInjector scripts fault decisions for white-box tests.
type scriptInjector struct {
	stall   func(t, agent int) bool
	restart func(t, agent int) bool
	fate    func(t, src, dst int) engine.Fate
}

func (s scriptInjector) Stalled(t, agent int) bool {
	return s.stall != nil && s.stall(t, agent)
}

func (s scriptInjector) Restart(t, agent int) bool {
	return s.restart != nil && s.restart(t, agent)
}

func (s scriptInjector) MessageFate(t, src, dst int) engine.Fate {
	if s.fate == nil {
		return engine.Fate{}
	}
	return s.fate(t, src, dst)
}

// addAgent accumulates the sum of everything it hears; order-insensitive,
// so traces compare by value.
type addAgent struct{ value float64 }

func (a *addAgent) Send() model.Message { return a.value }
func (a *addAgent) Receive(msgs []model.Message) {
	for _, m := range msgs {
		a.value += m.(float64)
	}
}
func (a *addAgent) Output() model.Value { return a.value }

func addFactory(in model.Input) model.Agent { return &addAgent{value: in.Value} }

// newEngine returns the sequential engine on cfg.
func newEngine(t *testing.T, cfg engine.Config) *engine.Engine {
	t.Helper()
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func complete2() dynamic.Schedule {
	g := graph.New(2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 1)
	return dynamic.NewStatic(g)
}

func stepAll(t *testing.T, e engine.Runner, rounds int) {
	t.Helper()
	for r := 1; r <= rounds; r++ {
		if err := e.Step(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
}

func wantOutputs(t *testing.T, e engine.Runner, want []model.Value) {
	t.Helper()
	if got := e.Outputs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("outputs %v, want %v", got, want)
	}
}

// TestFaultStallSkipsRound: a stalled agent neither sends nor receives for
// the round, messages addressed to it are lost, and its state survives.
func TestFaultStallSkipsRound(t *testing.T) {
	inj := scriptInjector{stall: func(tt, agent int) bool { return tt == 1 && agent == 1 }}
	e := newEngine(t, engine.Config{
		Schedule: complete2(),
		Kind:     model.SimpleBroadcast,
		Inputs:   []model.Input{{Value: 1}, {Value: 10}},
		Factory:  addFactory,
		Seed:     5,
		Faults:   inj,
	})
	stepAll(t, e, 2)
	// Round 1: agent 1 stalled — agent 0 hears only itself (1 → 2), agent 1
	// keeps 10. Round 2: full exchange — 2+(2+10)=14 and 10+(2+10)=22.
	wantOutputs(t, e, []model.Value{14.0, 22.0})
	if s := e.Stats(); s.MessagesDelivered != 1+4 {
		t.Fatalf("delivered %d messages, want 5 (1 in the stalled round, 4 after)", s.MessagesDelivered)
	}
}

// TestFaultCrashRestartResetsState: a crash-restart rebuilds the agent from
// its original input at the start of the round, before sends.
func TestFaultCrashRestartResetsState(t *testing.T) {
	inj := scriptInjector{restart: func(tt, agent int) bool { return tt == 2 && agent == 0 }}
	e := newEngine(t, engine.Config{
		Schedule: complete2(),
		Kind:     model.SimpleBroadcast,
		Inputs:   []model.Input{{Value: 1}, {Value: 10}},
		Factory:  addFactory,
		Seed:     5,
		Faults:   inj,
	})
	stepAll(t, e, 2)
	// Round 1: 1+(1+10)=12 and 10+(1+10)=21. Round 2: agent 0 restarts to 1
	// and sends 1; 1+(1+21)=23 and 21+(1+21)=43.
	wantOutputs(t, e, []model.Value{23.0, 43.0})
}

// TestFaultDelayRedelivered: a delayed message leaves the current multiset
// and joins the destination's multiset d rounds later.
func TestFaultDelayRedelivered(t *testing.T) {
	inj := scriptInjector{fate: func(tt, src, dst int) engine.Fate {
		if tt == 1 && src == 1 && dst == 0 {
			return engine.Fate{Delay: 1}
		}
		return engine.Fate{}
	}}
	e := newEngine(t, engine.Config{
		Schedule: complete2(),
		Kind:     model.SimpleBroadcast,
		Inputs:   []model.Input{{Value: 1}, {Value: 10}},
		Factory:  addFactory,
		Seed:     5,
		Faults:   inj,
	})
	stepAll(t, e, 2)
	// Round 1: agent 0 hears only itself (the 10 is in flight) → 2; agent 1
	// hears both → 21. Round 2: agent 0 hears 2, 21, and the delayed 10 →
	// 2+33=35; agent 1 hears 2, 21 → 44.
	wantOutputs(t, e, []model.Value{35.0, 44.0})
	if s := e.Stats(); s.Faults.Delayed != 1 || s.MessagesDelivered != 3+5 {
		t.Fatalf("stats %+v, want Delayed 1 and 8 delivered", s)
	}
}

// TestFaultDropDupStats: drops discard, dups double, and both are
// counted.
func TestFaultDropDupStats(t *testing.T) {
	inj := scriptInjector{fate: func(tt, src, dst int) engine.Fate {
		if tt != 1 {
			return engine.Fate{}
		}
		switch {
		case src == 0 && dst == 1:
			return engine.Fate{Drop: true}
		case src == 1 && dst == 0:
			return engine.Fate{Dup: 1}
		}
		return engine.Fate{}
	}}
	e := newEngine(t, engine.Config{
		Schedule: complete2(),
		Kind:     model.SimpleBroadcast,
		Inputs:   []model.Input{{Value: 1}, {Value: 10}},
		Factory:  addFactory,
		Seed:     5,
		Faults:   inj,
	})
	stepAll(t, e, 1)
	// Agent 0 hears itself plus 10 twice → 22; agent 1 hears only itself → 20.
	wantOutputs(t, e, []model.Value{22.0, 20.0})
	if s := e.Stats(); s.Faults.Dropped != 1 || s.Faults.Duplicated != 1 || s.MessagesDelivered != 4 {
		t.Fatalf("stats %+v, want 1 dropped, 1 duplicated, 4 delivered", s)
	}
}

// faultPlanInjector builds the shared injector for the cross-engine
// property tests.
func faultPlanInjector(t *testing.T) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(99, faults.Plan{
		Drop: 0.15, Dup: 0.1, DelayP: 0.12, DelayMax: 2, Stall: 0.08, Crash: 0.04,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestFaultTraceEqualityAcrossEngines is the tentpole property: for a
// non-zero (Seed, Plan), the sequential engine and whatever NewRunner
// builds for "vec" with 3 workers — the parallel vectorized kernel for
// the linear mass-passing algorithms, the sequential path for the rest —
// remain trace-identical on every algorithm family.
func TestFaultTraceEqualityAcrossEngines(t *testing.T) {
	const n = 7
	inj := faultPlanInjector(t)
	for _, tc := range algoCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engine.Config{
				Schedule: tc.schedule(n, 11),
				Kind:     tc.kind,
				Inputs:   caseInputs(n),
				Factory:  tc.factory(t),
				Seed:     23,
				Faults:   inj,
			}
			seq, err := engine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg2 := cfg
			cfg2.Factory = tc.factory(t)
			vec, err := engine.NewRunner(cfg2, "vec", 3)
			if err != nil {
				t.Fatal(err)
			}
			defer vec.Close()
			for r := 1; r <= tc.rounds; r++ {
				for _, e := range []engine.Runner{seq, vec} {
					if err := e.Step(); err != nil {
						t.Fatalf("round %d: %v", r, err)
					}
				}
				so, vo := seq.Outputs(), vec.Outputs()
				for i := range so {
					if !reflect.DeepEqual(so[i], vo[i]) {
						t.Fatalf("round %d agent %d: sequential %v ≠ %T %v", r, i, so[i], vec, vo[i])
					}
				}
			}
			if seq.Stats() != vec.Stats() {
				t.Fatalf("stats diverge: sequential %+v, %T %+v", seq.Stats(), vec, vec.Stats())
			}
			fs := seq.Stats().Faults
			if fs.Dropped == 0 && fs.Duplicated == 0 && fs.Delayed == 0 {
				t.Fatalf("plan with non-zero rates injected nothing over %d rounds: %+v", tc.rounds, fs)
			}
		})
	}
}

// TestFaultZeroPlanIdentity: an injector compiled from the zero plan yields
// byte-identical traces and statistics to running with no injector at all,
// on every algorithm family and engine.
func TestFaultZeroPlanIdentity(t *testing.T) {
	const n = 7
	zero, err := faults.NewInjector(99, faults.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range algoCases() {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(inj engine.FaultInjector, workers int) engine.Runner {
				cfg := engine.Config{
					Schedule: tc.schedule(n, 11),
					Kind:     tc.kind,
					Inputs:   caseInputs(n),
					Factory:  tc.factory(t),
					Seed:     23,
					Faults:   inj,
				}
				var (
					r   engine.Runner
					err error
				)
				if workers > 0 {
					r, err = engine.NewRunner(cfg, "vec", workers)
				} else {
					r, err = engine.New(cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(r.Close)
				return r
			}
			for _, workers := range []int{0, 3} {
				plain := mk(nil, workers)
				faulted := mk(zero, workers)
				for r := 1; r <= tc.rounds; r++ {
					if err := plain.Step(); err != nil {
						t.Fatal(err)
					}
					if err := faulted.Step(); err != nil {
						t.Fatal(err)
					}
					po, fo := plain.Outputs(), faulted.Outputs()
					for i := range po {
						if !reflect.DeepEqual(po[i], fo[i]) {
							t.Fatalf("workers=%d round %d agent %d: plain %v ≠ zero-plan %v", workers, r, i, po[i], fo[i])
						}
					}
				}
				if plain.Stats() != faulted.Stats() {
					t.Fatalf("workers=%d stats diverge: plain %+v, zero-plan %+v", workers, plain.Stats(), faulted.Stats())
				}
			}
		})
	}
}

// TestFaultChurnTraceEqualityAcrossEngines: a churned schedule (repair
// guard), whose CSR is rebuilt every round, drives the sequential engine
// and NewRunner's "vec" with 3 workers identically.
func TestFaultChurnTraceEqualityAcrossEngines(t *testing.T) {
	const n = 7
	for _, tc := range algoCases() {
		// Churn with a connectivity guard needs per-round strongly connected
		// bases (pushsum's SplitRing is deliberately disconnected every
		// round); port labellings do not survive churn, and minbase/freqcalc
		// assume a static graph. Gossip and metropolis remain.
		if tc.name != "gossip" && tc.name != "metropolis" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			base := tc.schedule(n, 11)
			churned, err := faults.WrapSchedule(base, 7, &faults.ChurnPlan{Drop: 0.3, Window: 2, Guard: faults.GuardRepair})
			if err != nil {
				t.Fatal(err)
			}
			cfg := engine.Config{
				Schedule: churned,
				Kind:     tc.kind,
				Inputs:   caseInputs(n),
				Factory:  tc.factory(t),
				Seed:     23,
			}
			seq, err := engine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg2 := cfg
			cfg2.Factory = tc.factory(t)
			vec, err := engine.NewRunner(cfg2, "vec", 3)
			if err != nil {
				t.Fatal(err)
			}
			defer vec.Close()
			for r := 1; r <= tc.rounds; r++ {
				if err := seq.Step(); err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				if err := vec.Step(); err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				so, vo := seq.Outputs(), vec.Outputs()
				for i := range so {
					if !reflect.DeepEqual(so[i], vo[i]) {
						t.Fatalf("round %d agent %d: sequential %v ≠ %T %v", r, i, so[i], vec, vo[i])
					}
				}
			}
		})
	}
}
