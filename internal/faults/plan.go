// Package faults is the deterministic fault-injection subsystem: a seeded,
// JSON-codable Plan of fault channels (message drop, duplication, delay,
// agent stall, agent crash-restart, link churn) compiled into an Injector
// that the engines consult as a pure function. Determinism is the design
// center: every fault decision is a splitmix64-style hash of
// (seed, round, participants, channel salt), never a draw from a shared
// RNG stream, so the sequential, sharded, and vectorized engines — which
// evaluate the decisions from different goroutines in different orders —
// reach identical verdicts, and a zero Plan perturbs nothing at all.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Plan describes the fault channels of one execution. All channels compose
// independently; the zero Plan injects nothing. Probabilities are per
// message (drop, dup, delay) or per agent per round (stall, crash) and
// must lie in [0, 1]. Self-loop messages — an agent hearing itself — are
// exempt from the message channels.
type Plan struct {
	// Drop is the probability that a message in flight is discarded.
	Drop float64 `json:"drop,omitempty"`
	// Dup is the probability that a message is delivered twice.
	Dup float64 `json:"dup,omitempty"`
	// DelayP is the probability that a message is postponed to a later
	// round's multiset instead of the current one.
	DelayP float64 `json:"delay_p,omitempty"`
	// DelayMax bounds the postponement: a delayed message is re-delivered
	// after 1..DelayMax rounds (0 means exactly 1).
	DelayMax int `json:"delay_max,omitempty"`
	// Stall is the probability that an agent skips a round entirely: it
	// neither sends nor receives (messages addressed to it are lost), but
	// its state survives.
	Stall float64 `json:"stall,omitempty"`
	// Crash is the probability that an agent crash-restarts at the start
	// of a round: its state is reset to the factory's initial state for
	// its original input.
	Crash float64 `json:"crash,omitempty"`
	// Churn optionally removes links per churn window; see ChurnPlan.
	Churn *ChurnPlan `json:"churn,omitempty"`
}

// ChurnPlan describes link churn: in every window of Window consecutive
// rounds, each non-self-loop link (unordered vertex pair, so symmetric
// networks stay symmetric) is removed with probability Drop. The optional
// Guard keeps the remaining graph strongly connected, preserving the
// hypotheses of the paper's computability results.
type ChurnPlan struct {
	// Drop is the per-link per-window removal probability.
	Drop float64 `json:"drop"`
	// Window is the number of rounds a removal persists (0 means 1: links
	// re-roll every round).
	Window int `json:"window,omitempty"`
	// Guard selects the strong-connectivity guard: "" or "off" disables
	// it, "repair" re-adds removed links until the graph reconnects, and
	// "reject" refuses disconnecting windows (the schedule yields no graph
	// and the run fails).
	Guard string `json:"guard,omitempty"`
}

// Guard modes accepted by ChurnPlan.Guard.
const (
	GuardOff    = "off"
	GuardReject = "reject"
	GuardRepair = "repair"
)

func probability(name string, p float64) error {
	if p < 0 || p > 1 || p != p {
		return fmt.Errorf("faults: %s probability %v outside [0, 1]", name, p)
	}
	return nil
}

// Validate checks ranges and enum fields.
func (p *Plan) Validate() error {
	if err := probability("drop", p.Drop); err != nil {
		return err
	}
	if err := probability("dup", p.Dup); err != nil {
		return err
	}
	if err := probability("delay_p", p.DelayP); err != nil {
		return err
	}
	if err := probability("stall", p.Stall); err != nil {
		return err
	}
	if err := probability("crash", p.Crash); err != nil {
		return err
	}
	if p.DelayMax < 0 {
		return fmt.Errorf("faults: delay_max %d is negative", p.DelayMax)
	}
	if p.DelayMax > 0 && p.DelayP == 0 {
		return fmt.Errorf("faults: delay_max %d set but delay_p is 0", p.DelayMax)
	}
	if p.Churn != nil {
		return p.Churn.Validate()
	}
	return nil
}

// Validate checks ranges and the guard enum.
func (c *ChurnPlan) Validate() error {
	if err := probability("churn drop", c.Drop); err != nil {
		return err
	}
	if c.Window < 0 {
		return fmt.Errorf("faults: churn window %d is negative", c.Window)
	}
	switch c.Guard {
	case "", GuardOff, GuardReject, GuardRepair:
		return nil
	default:
		return fmt.Errorf("faults: unknown churn guard %q (want off, reject, or repair)", c.Guard)
	}
}

// IsZero reports whether the plan injects nothing: executions under a zero
// plan are bit-identical to fault-free ones, and callers normalize a zero
// plan to "no plan" (keeping job-spec hashes unchanged).
func (p *Plan) IsZero() bool {
	if p == nil {
		return true
	}
	return p.Drop == 0 && p.Dup == 0 && p.DelayP == 0 && p.DelayMax == 0 &&
		p.Stall == 0 && p.Crash == 0 && (p.Churn == nil || p.Churn.Drop == 0)
}

// ParsePlan decodes and validates a JSON plan, rejecting unknown fields.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: decoding plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}
