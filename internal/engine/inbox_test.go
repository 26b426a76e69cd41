package engine_test

import (
	"fmt"
	"slices"
	"testing"

	"anonnet/internal/algorithms/gossip"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/model"
	"anonnet/internal/testutil"
)

// inboxAgent is a gossip agent that keeps the message it sent last and a
// copy of the inbox it received last, each message spelled as a string
// and the inbox sorted, so inboxes compare as multisets.
type inboxAgent struct {
	*gossip.Agent
	sent model.Message
	got  []string
}

func (a *inboxAgent) Send() model.Message {
	a.sent = a.Agent.Send()
	return a.sent
}

func (a *inboxAgent) Receive(msgs []model.Message) {
	a.got = a.got[:0]
	for _, m := range msgs {
		a.got = append(a.got, fmt.Sprint(m))
	}
	slices.Sort(a.got)
	a.Agent.Receive(msgs)
}

// TestInboxOutgrowsSlab: the engine cuts its inboxes from one slab sized
// by the first round's in-degrees, so a later round that delivers more
// must regrow the inbox it overflows and leave its neighbours' windows
// alone. Gossip runs on a static ring under a duplicate-heavy fault plan,
// and on a dynamic schedule whose in-degrees grow after round 1 (a ring,
// then the complete graph); every round, on the sequential engine, each
// agent's received multiset must equal the reference inbox built afresh
// from the round's graph, the fates and what every agent sent.
func TestInboxOutgrowsSlab(t *testing.T) {
	const n, rounds = 10, 6
	dup := func(t, src, dst int) int { return (t + src + 2*dst) % 3 }
	grows, err := dynamic.NewPeriodic(graph.Ring(n), graph.Complete(n))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		sched  dynamic.Schedule
		faults engine.FaultInjector
		dup    func(t, src, dst int) int
	}{
		{"ring/dup", dynamic.NewStatic(graph.Ring(n)), scriptInjector{fate: func(t, src, dst int) engine.Fate {
			return engine.Fate{Dup: dup(t, src, dst)}
		}}, dup},
		{"ring-then-complete", grows, nil, func(int, int, int) int { return 0 }},
	}
	gf, err := gossip.NewFactory(funcs.Max())
	if err != nil {
		t.Fatal(err)
	}
	factory := func(in model.Input) model.Agent { return &inboxAgent{Agent: gf(in).(*gossip.Agent)} }
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i) + 0.25
	}
	for _, tc := range cases {
		cfg := engine.Config{Schedule: tc.sched, Kind: model.SimpleBroadcast, Inputs: testutil.Inputs(vals...), Factory: factory, Seed: 3, Faults: tc.faults}
		r, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for round := 1; round <= rounds; round++ {
			if err := r.Step(); err != nil {
				t.Fatal(err)
			}
			want := make([][]string, n)
			for _, e := range tc.sched.At(round).Arcs() {
				copies := 1
				if e.From != e.To {
					copies += tc.dup(round, e.From, e.To)
				}
				sent := fmt.Sprint(r.Agent(e.From).(*inboxAgent).sent)
				for c := 0; c < copies; c++ {
					want[e.To] = append(want[e.To], sent)
				}
			}
			for j := range want {
				slices.Sort(want[j])
				if got := r.Agent(j).(*inboxAgent).got; !slices.Equal(got, want[j]) {
					t.Fatalf("%s round %d: agent %d received %v, want %v", tc.name, round, j, got, want[j])
				}
			}
		}
		r.Close()
	}
}
