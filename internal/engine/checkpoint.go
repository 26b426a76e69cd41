package engine

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"anonnet/internal/model"
)

// This file is the checkpoint/resume layer over the shared round core: a
// Checkpoint captures everything a runner needs to continue an execution
// from a round boundary — agent states, the RNG draw count, the round and
// message counters, the fault counters, and any in-flight delayed
// messages — and the checkpointed harness takes one every K rounds. A
// restored run is bit-identical to an uninterrupted one: the RNG is
// fast-forwarded draw-for-draw, agent states round-trip losslessly through
// model.Checkpointable, and the resume-equality tests hash both traces.

// ErrInterrupted is returned by RunUntilStableCheckpointedCtx when the run
// was stopped by a flush request, after writing a final checkpoint when
// the policy saves them. The run is not failed: it resumes from that
// checkpoint, or reruns from round 0 when there is none.
var ErrInterrupted = errors.New("engine: run interrupted by a flush")

// ErrNotCheckpointable reports a runner whose agents do not implement
// model.Checkpointable, or whose in-flight state cannot be serialized.
var ErrNotCheckpointable = errors.New("engine: execution is not checkpointable")

// Checkpointer is the optional runner capability behind checkpoint/resume.
// The four agent-holding runners implement it; Snapshot fails with
// ErrNotCheckpointable when the agents do not cooperate. The flooding
// kernel holds no agents and does not implement it, as its set agents do
// not checkpoint. Both methods must only be called
// between rounds (the engines are quiescent there — no worker goroutine
// touches agent state outside Step).
type Checkpointer interface {
	// Snapshot captures the execution state at the current round boundary.
	Snapshot() (*Checkpoint, error)
	// Restore rewinds (or fast-forwards) a freshly constructed runner of
	// the same Config to cp's round boundary. It must be called before the
	// first Step.
	Restore(cp *Checkpoint) error
}

// Checkpoint is one resumable round-boundary snapshot of an execution.
// It gob-encodes; delayed in-flight messages require their concrete types
// to be gob.Registered (the checkpointable algorithm packages do this in
// their init functions).
type Checkpoint struct {
	// Engine is the runner name the snapshot was taken on. Restore refuses
	// a runner of the other family, because the pending-state layout is
	// family-specific: the core-layout runners (sequential, sharded) share
	// one, the vector runners another.
	Engine string
	// Round is the number of completed rounds at the snapshot.
	Round int
	// Draws is the number of RNG draws consumed by the seeded shuffle;
	// Restore replays them against a fresh source, reproducing the exact
	// generator state.
	Draws int64
	// Messages and Faults are the cumulative counters at the snapshot.
	Messages int64
	Faults   FaultStats
	// Agents holds one model.Checkpointable blob per agent.
	Agents [][]byte
	// Delayed holds the generic engines' in-flight delayed messages, in
	// per-destination append order.
	Delayed []DelayedMsg
	// VecDelayed holds the vectorized engine's in-flight delayed rows.
	VecDelayed *VecDelayed
	// Unchanged and StableSince carry the stability detector's window
	// state, so a resumed run declares stabilization at the same round an
	// uninterrupted one would.
	Unchanged   int
	StableSince int
}

// DelayedMsg is one in-flight delayed message of the generic engines.
type DelayedMsg struct {
	Dst, Due int
	Msg      model.Message
}

// VecDelayed is the vectorized engine's pending state: per-destination due
// rounds and the matching flat rows.
type VecDelayed struct {
	Width int
	Due   [][]int
	Buf   [][]float64
}

// Encode serializes the checkpoint (gob; float64 state is bit-exact).
func (cp *Checkpoint) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		return nil, fmt.Errorf("engine: encoding checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeCheckpoint deserializes a blob written by Encode.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	cp := new(Checkpoint)
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(cp); err != nil {
		return nil, fmt.Errorf("engine: decoding checkpoint: %w", err)
	}
	return cp, nil
}

// countingSource wraps the math/rand feedback-register source, counting
// state advances. Every Int63 and Uint64 call advances the underlying
// generator by exactly one step (rngSource.Int63 is Uint64 masked), so the
// count alone reconstructs the generator state: seed a fresh source and
// discard count draws. The wrapper preserves Source64-ness, so rand.Rand
// takes exactly the code paths — and produces exactly the draw sequence —
// it does over the bare source; the golden-trace tests pin this.
type countingSource struct {
	src   rand.Source64
	draws int64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.draws = 0
}

// fastForward resets the source to seed and discards n draws.
func (s *countingSource) fastForward(seed int64, n int64) {
	s.src = rand.NewSource(seed).(rand.Source64)
	for i := int64(0); i < n; i++ {
		s.src.Uint64()
	}
	s.draws = n
}

// Snapshot captures the core's execution state; the generic runners
// (sequential, sharded) promote it unchanged, the vector runners wrap it
// to add their pending rows. Callers must be between rounds.
func (c *core) Snapshot() (*Checkpoint, error) {
	cp := &Checkpoint{
		Engine:   c.name,
		Round:    c.round,
		Draws:    c.src.draws,
		Messages: c.messages,
		Faults:   c.faults,
		Agents:   make([][]byte, len(c.agents)),
	}
	for i, a := range c.agents {
		ck, ok := a.(model.Checkpointable)
		if !ok {
			return nil, fmt.Errorf("%w: agent %d (%T) does not implement model.Checkpointable", ErrNotCheckpointable, i, a)
		}
		blob, err := ck.MarshalState()
		if err != nil {
			return nil, fmt.Errorf("engine: marshaling agent %d state: %w", i, err)
		}
		cp.Agents[i] = blob
	}
	if c.pend != nil {
		for dst, q := range c.pend.byDst {
			for _, pm := range q {
				cp.Delayed = append(cp.Delayed, DelayedMsg{Dst: dst, Due: pm.due, Msg: pm.msg})
			}
		}
	}
	return cp, nil
}

// coreCheckpointEngines are the Engine tags of the core-layout runners.
// They share the generic Delayed layout and the RNG draw sequence, so a
// snapshot taken on any of them resumes on either generic runner —
// "concurrent" included, the tag of the retired goroutine-per-agent
// runner, whose checkpoints a durable store may still hold. The vector
// runners' "vectorized" snapshots stay refused.
var coreCheckpointEngines = map[string]bool{"sequential": true, "concurrent": true, "sharded": true}

// Restore rewinds a freshly constructed generic runner to the round
// boundary of a core-layout checkpoint: counters, fault totals, the
// fast-forwarded RNG, agent states, and the pending delayed messages.
func (c *core) Restore(cp *Checkpoint) error {
	if !coreCheckpointEngines[cp.Engine] {
		return fmt.Errorf("engine: checkpoint taken on %q engine, restoring on %q", cp.Engine, c.name)
	}
	if err := c.restoreState(cp); err != nil {
		return err
	}
	if len(cp.Delayed) > 0 {
		if c.pend == nil {
			return fmt.Errorf("engine: checkpoint carries %d delayed messages but this run has no fault injector", len(cp.Delayed))
		}
		for _, dm := range cp.Delayed {
			if dm.Dst < 0 || dm.Dst >= len(c.pend.byDst) {
				return fmt.Errorf("engine: checkpoint delayed message for destination %d of %d agents", dm.Dst, c.N())
			}
			c.pend.add(dm.Dst, dm.Due, dm.Msg)
		}
	}
	return nil
}

// restoreState applies the engine-independent half of a checkpoint.
func (c *core) restoreState(cp *Checkpoint) error {
	if c.round != 0 {
		return fmt.Errorf("engine: Restore on a runner that already ran %d rounds", c.round)
	}
	if len(cp.Agents) != len(c.agents) {
		return fmt.Errorf("engine: checkpoint has %d agent states for %d agents", len(cp.Agents), len(c.agents))
	}
	for i, blob := range cp.Agents {
		ck, ok := c.agents[i].(model.Checkpointable)
		if !ok {
			return fmt.Errorf("%w: agent %d (%T) does not implement model.Checkpointable", ErrNotCheckpointable, i, c.agents[i])
		}
		if err := ck.UnmarshalState(blob); err != nil {
			return fmt.Errorf("engine: restoring agent %d state: %w", i, err)
		}
	}
	c.round = cp.Round
	c.messages = cp.Messages
	c.faults = cp.Faults
	c.src.fastForward(c.cfg.Seed, cp.Draws)
	return nil
}

// vecCheckpointEngine is the Engine tag both vector runners stamp on
// their checkpoints: they share the VecDelayed pending layout (and the
// RNG draw sequence), so a snapshot taken on one resumes on the other —
// vec ↔ parallel vec — while the generic runners still refuse it.
const vecCheckpointEngine = "vectorized"

// Snapshot captures a vectorized engine's state: the core snapshot plus
// the pending delayed rows (the flat SoA buffers themselves are rewritten
// every round and need no capture at a round boundary). Shared by the
// single-threaded and parallel vectorized runners.
func snapshotVec(c *core, vpend *vecPending, width int) (*Checkpoint, error) {
	cp, err := c.Snapshot()
	if err != nil {
		return nil, err
	}
	cp.Engine = vecCheckpointEngine
	if vpend != nil {
		vd := &VecDelayed{Width: width, Due: make([][]int, c.N()), Buf: make([][]float64, c.N())}
		for dst := range vpend.byDst {
			q := &vpend.byDst[dst]
			vd.Due[dst] = append([]int(nil), q.due...)
			vd.Buf[dst] = append([]float64(nil), q.buf...)
		}
		cp.VecDelayed = vd
	}
	return cp, nil
}

// restoreVec rewinds a fresh vectorized runner (either of the two) to
// cp's round boundary.
func restoreVec(c *core, vpend *vecPending, width int, cp *Checkpoint) error {
	if cp.Engine != vecCheckpointEngine {
		return fmt.Errorf("engine: checkpoint taken on %q engine, restoring on %q", cp.Engine, c.name)
	}
	if err := c.restoreState(cp); err != nil {
		return err
	}
	if cp.VecDelayed == nil {
		return nil
	}
	if vpend == nil {
		return fmt.Errorf("engine: checkpoint carries delayed rows but this run has no fault injector")
	}
	vd := cp.VecDelayed
	if vd.Width != width {
		return fmt.Errorf("engine: checkpoint delayed rows have width %d, engine width is %d", vd.Width, width)
	}
	if len(vd.Due) != c.N() || len(vd.Buf) != c.N() {
		return fmt.Errorf("engine: checkpoint delayed rows for %d destinations, want %d", len(vd.Due), c.N())
	}
	for dst := range vpend.byDst {
		q := &vpend.byDst[dst]
		if len(vd.Buf[dst]) != len(vd.Due[dst])*width {
			return fmt.Errorf("engine: checkpoint delayed buffer for destination %d has %d floats for %d rows", dst, len(vd.Buf[dst]), len(vd.Due[dst]))
		}
		q.due = append(q.due[:0], vd.Due[dst]...)
		q.buf = append(q.buf[:0], vd.Buf[dst]...)
	}
	return nil
}

// Snapshot captures the vectorized engine's state.
func (v *Vectorized) Snapshot() (*Checkpoint, error) {
	return snapshotVec(v.core, v.vpend, v.width)
}

// Restore rewinds a fresh vectorized runner to cp's round boundary. It
// also accepts checkpoints taken on the parallel vectorized runner — the
// pending layout and draw sequence are identical.
func (v *Vectorized) Restore(cp *Checkpoint) error {
	return restoreVec(v.core, v.vpend, v.width, cp)
}

// Snapshot captures the parallel vectorized engine's state. The snapshot
// carries the vectorized Engine tag: both vector runners produce the same
// draw sequence and pending layout, so their checkpoints interchange.
func (p *ParallelVec) Snapshot() (*Checkpoint, error) {
	return snapshotVec(p.core, p.vpend, p.width)
}

// Restore rewinds a fresh parallel vectorized runner to a round boundary
// checkpointed on either vector runner.
func (p *ParallelVec) Restore(cp *Checkpoint) error {
	return restoreVec(p.core, p.vpend, p.width, cp)
}

// CanCheckpoint reports whether a runner's execution can be checkpointed:
// every agent implements model.Checkpointable. It inspects the agents
// without serializing anything.
func CanCheckpoint(r Runner) bool {
	type agentHolder interface{ Agent(i int) model.Agent }
	h, ok := r.(agentHolder)
	if !ok {
		return false
	}
	for i := 0; i < r.N(); i++ {
		if _, ok := h.Agent(i).(model.Checkpointable); !ok {
			return false
		}
	}
	return true
}

// CheckpointPolicy drives RunUntilStableCheckpointedCtx: periodic
// snapshots through Save, an optional resume point, and an optional flush
// channel for stop-at-the-next-round (graceful shutdown). Every, Save and
// Resume need a Checkpointer runner; Flush alone works on every runner.
type CheckpointPolicy struct {
	// Every takes a checkpoint after every Every-th round (0: never).
	Every int
	// Save persists one checkpoint; a Save error aborts the run.
	Save func(cp *Checkpoint) error
	// Resume, when non-nil, is restored into the runner before the first
	// step; the run continues at Resume.Round+1.
	Resume *Checkpoint
	// Flush, when readable, stops the run at the next round boundary with
	// ErrInterrupted, after a final checkpoint through Save when Save is
	// set. Without Save the run stops with no checkpoint, to rerun from
	// round 0.
	Flush <-chan struct{}
}

// RunUntilStableCheckpointedCtx is RunUntilStableCtx with a checkpoint
// policy: it restores pol.Resume first (when set), snapshots the execution
// every pol.Every rounds through pol.Save, and answers a pol.Flush request
// with ErrInterrupted, after a final checkpoint when pol.Save is set. The
// stability window state travels inside the checkpoint, so a resumed run
// stabilizes at exactly the round an uninterrupted one does.
//
// On a FloatRunner the harness takes the float path: under
// model.Discrete two float64 outputs are at distance 0 exactly when
// a == b, so it compares the runner's float vectors round over round with
// ==, in one reused copy, and returns the final vector as Floats, boxing
// nothing.
func RunUntilStableCheckpointedCtx(ctx context.Context, r Runner, patience, maxRounds int, obs Observer, pol CheckpointPolicy) (*StableResult, error) {
	if patience < 1 {
		return nil, fmt.Errorf("engine: RunUntilStable: patience %d, want ≥ 1", patience)
	}
	var ck Checkpointer
	if pol.Every > 0 || pol.Resume != nil || pol.Save != nil {
		var ok bool
		if ck, ok = r.(Checkpointer); !ok {
			return nil, fmt.Errorf("%w: %T does not implement engine.Checkpointer", ErrNotCheckpointable, r)
		}
	}
	start := 1
	unchanged, stableSince := 0, 0
	if pol.Resume != nil {
		if err := ck.Restore(pol.Resume); err != nil {
			return nil, err
		}
		start = pol.Resume.Round + 1
		unchanged = pol.Resume.Unchanged
		stableSince = pol.Resume.StableSince
	}
	snapshot := func() (*Checkpoint, error) {
		cp, err := ck.Snapshot()
		if err != nil {
			return nil, err
		}
		cp.Unchanged = unchanged
		cp.StableSince = stableSince
		return cp, nil
	}
	// prev holds the outputs of the round before, or on the float path
	// prevF does: a copy of the runner's vector, overwritten in place.
	var prev []model.Value
	var prevF []float64
	fr, _ := r.(FloatRunner)
	if fr != nil {
		prevF = slices.Clone(fr.Floats())
	} else {
		prev = r.Outputs()
	}
	for t := start; t <= maxRounds; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("engine: run aborted after %d rounds: %w", r.Round(), err)
		}
		if err := r.Step(); err != nil {
			return nil, err
		}
		if obs != nil {
			obs(r.Round(), r)
		}
		var same bool
		if fr != nil {
			cur := fr.Floats()
			same = slices.Equal(prevF, cur)
			copy(prevF, cur)
		} else {
			cur := r.Outputs()
			same = outputsEqual(prev, cur)
			prev = cur
		}
		if same {
			if unchanged == 0 {
				stableSince = r.Round() - 1
			}
			unchanged++
			if unchanged >= patience {
				return &StableResult{Stable: true, StabilizedAt: stableSince, Rounds: r.Round(), Outputs: prev, Floats: prevF}, nil
			}
		} else {
			unchanged = 0
		}
		if pol.Flush != nil {
			select {
			case <-pol.Flush:
				if pol.Save != nil {
					cp, err := snapshot()
					if err != nil {
						return nil, err
					}
					if err := pol.Save(cp); err != nil {
						return nil, fmt.Errorf("engine: saving flush checkpoint at round %d: %w", r.Round(), err)
					}
				}
				return nil, fmt.Errorf("engine: run flushed at round %d: %w", r.Round(), ErrInterrupted)
			default:
			}
		}
		if pol.Every > 0 && pol.Save != nil && t%pol.Every == 0 {
			cp, err := snapshot()
			if err != nil {
				return nil, err
			}
			if err := pol.Save(cp); err != nil {
				return nil, fmt.Errorf("engine: saving checkpoint at round %d: %w", r.Round(), err)
			}
		}
	}
	return &StableResult{Stable: false, Rounds: r.Round(), Outputs: prev, Floats: prevF}, nil
}
