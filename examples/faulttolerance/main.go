// Fault tolerance: how the paper's algorithms degrade — and when they
// don't — under the deterministic fault-injection layer (faultnet).
//
// Three experiments on an anonymous bidirectional ring:
//
//  1. Metropolis max (symmetric model, Table 2's size row) under message
//     drops, agent stalls, and guarded link churn: the algorithm is
//     self-stabilizing, so it still reaches the exact maximum.
//  2. Push-Sum average (outdegree-aware, bound row) under delay-only
//     faults: delayed messages are re-delivered, mass is conserved, and
//     the average stays exact.
//  3. Push-Sum under message drops: dropped messages destroy mass
//     conservation, so the agents still agree — but on a biased value.
//     Graceful degradation, quantified.
//
// Every fault decision is a pure hash of (seed, round, participants):
// re-running this program reproduces the same faults, byte for byte, on
// any of the engines.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"anonnet"
)

const n = 8

func main() {
	ctx := context.Background()

	// --- 1. Metropolis max survives drops, stalls, and churn. -----------
	maxSetting := anonnet.Setting{Kind: anonnet.Symmetric, Row: anonnet.RowSize, KnownN: n}
	maxFactory, err := anonnet.NewFactory(anonnet.Max(), maxSetting)
	if err != nil {
		log.Fatal(err)
	}
	inputs := []float64{1, 7, 3, 2, 5, 4, 6, 8}
	storm := anonnet.FaultPlan{
		Drop:  0.2,
		Stall: 0.1,
		Churn: &anonnet.ChurnPlan{Drop: 0.3, Window: 2, Guard: anonnet.GuardRepair},
	}
	res, err := anonnet.Compute(ctx, anonnet.Spec{
		Factory:  maxFactory,
		Schedule: anonnet.NewStatic(anonnet.BidirectionalRing(n)),
		Inputs:   anonnet.Inputs(inputs...),
		Kind:     anonnet.Symmetric,
	}, anonnet.WithSeed(7), anonnet.WithFaults(storm), anonnet.WithMaxRounds(500))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Metropolis max under drop=0.2 stall=0.1 churn=0.3 (repair guard):\n")
	fmt.Printf("  outputs %v after %d rounds — exact despite the faults\n\n", res.Outputs, res.Rounds)

	// --- 2. Push-Sum with delay-only faults: average stays exact. -------
	avgSetting := anonnet.Setting{Kind: anonnet.OutdegreeAware, Static: false, Row: anonnet.RowBound, BoundN: n}
	avgFactory, err := anonnet.NewFactory(anonnet.Average(), avgSetting)
	if err != nil {
		log.Fatal(err)
	}
	truth := 0.0
	for _, v := range inputs {
		truth += v
	}
	truth /= n
	delayed := anonnet.FaultPlan{DelayP: 0.2, DelayMax: 3}
	exact := runPushSum(ctx, avgFactory, inputs, delayed)
	fmt.Printf("Push-Sum average under delay-only faults (delay_p=0.2, ≤3 rounds):\n")
	fmt.Printf("  output %.6f, truth %.6f — delayed messages are re-delivered,\n", exact, truth)
	fmt.Printf("  mass is conserved, the answer is exact\n\n")

	// --- 3. Push-Sum with drops: agreement survives, the value drifts. --
	lossy := anonnet.FaultPlan{Drop: 0.15}
	biased := runPushSum(ctx, avgFactory, inputs, lossy)
	fmt.Printf("Push-Sum average under message drops (drop=0.15):\n")
	fmt.Printf("  output %.6f, truth %.6f, bias %.4f — drops destroy mass\n", biased, truth, biased-truth)
	fmt.Printf("  conservation, so the agents agree on a perturbed average\n")
	if math.Abs(exact-truth) > 1e-6 {
		log.Fatalf("delay-only run should be exact, got %.9f vs %.9f", exact, truth)
	}
}

// runPushSum runs Push-Sum to a long horizon under the plan and returns
// the (agreed) output of agent 0, after checking all agents agree.
func runPushSum(ctx context.Context, factory anonnet.Factory, inputs []float64, plan anonnet.FaultPlan) float64 {
	res, err := anonnet.Compute(ctx, anonnet.Spec{
		Factory:  factory,
		Schedule: anonnet.NewStatic(anonnet.Ring(n)),
		Inputs:   anonnet.Inputs(inputs...),
		Kind:     anonnet.OutdegreeAware,
	}, anonnet.WithSeed(7), anonnet.WithFaults(plan), anonnet.WithMaxRounds(400))
	if err != nil {
		log.Fatal(err)
	}
	first := res.Outputs[0].(float64)
	for i, o := range res.Outputs {
		if math.Abs(o.(float64)-first) > 1e-9 {
			log.Fatalf("agent %d disagrees: %v vs %v", i, o, first)
		}
	}
	return first
}
