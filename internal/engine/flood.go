package engine

import (
	"errors"
	"fmt"
	"reflect"

	"anonnet/internal/model"
	"anonnet/internal/topology"
)

// Flood is the single-goroutine kernel for set-flooding agents
// (model.SetAgent), the flooding counterpart of the Vectorized kernel for
// linear ones. Such an agent is the set of values it has heard, so the
// kernel builds one probe agent from the factory, for f, instead of n: it
// holds every agent's set as a window of a flat arena, unions each active
// destination's window with its active in-neighbours' written straight
// into the next arena, and writes f's values into one reused []float64.
// A destination with one in-neighbour set to merge — every agent of a
// directed ring, path or cycle — merges the two windows in one
// two-pointer pass (model.AppendUnion); one with more takes them all in
// one model.SetUnion, the merge the agents' own Receive uses. A union
// does not depend on the order of its operands, so the kernel draws
// nothing from the RNG and shuffles nothing, and its per-round outputs
// and Stats equal the sequential Engine's for equal Config; the
// differential tests in flood_test.go assert it.
//
// NewRunner builds it for "seq" and as the fallback of "vec" when the
// factory's agents are SetAgents that conform to the model and the run
// has no fault injector. A round in which no set changes writes and
// allocates nothing, and a round that runs over the last round's
// snapshot with the same agents active merges no in-neighbour set that
// the last round left unchanged; an arena never holds more than twice the
// floats of the sets written into it, and between rounds the two arenas
// together hold at most twice the floats of the sets they store.
type Flood struct {
	cfg      Config
	desc     *model.Descriptor
	topo     *topology.Provider
	probe    model.SetAgent
	corrupts bool // the probe is model.Corruptible
	round    int
	messages int64
	closed   bool
	// active is the round's activity mask; nil when every agent is active
	// from round 1 (no Starts).
	active []bool

	// Agent i's set is sets[off[i]:off[i+1]], packed in agent order. A
	// round that changes a set writes every set, packed again, into spare
	// and spareOff and swaps the pairs; a round that changes none writes
	// nothing. The sets before the first one that changes are copied in
	// one piece.
	sets, spare   []float64
	off, spareOff []int
	// union stages the next set of an agent with several in-neighbour
	// sets to merge.
	union model.SetUnion
	// out[i] is f on agent i's set; changed marks the sets this round
	// rewrote, whose outputs commit recomputes, and last the sets the
	// last round rewrote.
	out           []float64
	changed, last []bool
	// lastBuilds is the provider's build count after the last round, or
	// −1 when the next round must merge every in-neighbour set: before
	// round 1, and after an error or a Corrupt.
	lastBuilds int64
}

var _ Runner = (*Flood)(nil)

// ErrNotFloodable reports that a Config cannot run on the flooding
// kernel: its agents do not implement model.SetAgent, inherit it by
// embedding, or do not conform to the model, or the run injects faults.
// NewRunner matches it with errors.Is and builds the sequential engine
// instead, whose traces are identical.
var ErrNotFloodable = errors.New("engine: config is not floodable")

// NewFlood validates cfg, probes one agent from the factory, and returns a
// flooding kernel positioned before round 1. It returns an error wrapping
// ErrNotFloodable when the execution cannot run on the kernel.
func NewFlood(cfg Config) (*Flood, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	desc, err := model.Lookup(cfg.Kind)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	probe, err := floodProbe(cfg, desc)
	if err != nil {
		return nil, err
	}
	topo, err := newProvider(cfg)
	if err != nil {
		return nil, err
	}
	n := len(cfg.Inputs)
	f := &Flood{
		cfg:        cfg,
		desc:       desc,
		topo:       topo,
		probe:      probe,
		sets:       make([]float64, n),
		off:        make([]int, n+1),
		spareOff:   make([]int, n+1),
		out:        make([]float64, n),
		changed:    make([]bool, n),
		last:       make([]bool, n),
		lastBuilds: -1,
	}
	if cfg.Starts != nil {
		f.active = make([]bool, n)
	}
	_, f.corrupts = probe.(model.Corruptible)
	for i, in := range cfg.Inputs {
		f.sets[i] = in.Value
		f.off[i+1] = i + 1
		f.out[i] = probe.SetOutput(f.sets[i : i+1])
	}
	return f, nil
}

// floodProbe builds one agent from the factory and returns it when the
// execution can run on the kernel: every agent comes from the same
// factory, so one probe decides for all, as CanVectorize's does.
func floodProbe(cfg Config, desc *model.Descriptor) (model.SetAgent, error) {
	if cfg.Faults != nil {
		return nil, fmt.Errorf("%w: fault injection runs on the generic engines", ErrNotFloodable)
	}
	if len(cfg.Inputs) == 0 {
		return nil, fmt.Errorf("%w: no agents", ErrNotFloodable)
	}
	a := cfg.Factory(cfg.Inputs[0])
	sa, ok := a.(model.SetAgent)
	switch {
	case !ok:
		return nil, fmt.Errorf("%w: agent (%T) does not implement model.SetAgent", ErrNotFloodable, a)
	case embedsSetAgent(a):
		return nil, fmt.Errorf("%w: agent (%T) embeds a model.SetAgent, whose Send or Receive it may override", ErrNotFloodable, a)
	case !desc.Conforms(a):
		return nil, fmt.Errorf("%w: agent (%T) does not implement %s", ErrNotFloodable, a, desc.Iface)
	}
	return sa, nil
}

// embedsSetAgent reports whether a's type embeds a model.SetAgent. Go
// promotes the contract's methods to such a type, which may still
// override Send or Receive — overrides the kernel would never call — so
// only a type that declares the contract itself runs on the kernel.
func embedsSetAgent(a model.Agent) bool {
	t := reflect.TypeOf(a)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct {
		return false
	}
	setAgent := reflect.TypeFor[model.SetAgent]()
	for i := range t.NumField() {
		if ft := t.Field(i); ft.Anonymous && (ft.Type.Implements(setAgent) || reflect.PointerTo(ft.Type).Implements(setAgent)) {
			return true
		}
	}
	return false
}

// Step executes one round with the same outputs and Stats as Engine.Step:
// refresh the activity mask, fetch the round's snapshot, and union every
// active destination's active in-neighbour sets into its own. A
// destination skips an in-neighbour set the last round left unchanged
// when the round runs over the last round's snapshot (the provider built
// none since) with the same agents active: it merged that set then.
func (f *Flood) Step() error {
	if f.closed {
		return fmt.Errorf("engine: Step on closed flood engine")
	}
	t := f.round + 1
	same := true // every agent's activity is the last round's
	if f.cfg.Starts != nil {
		for i, start := range f.cfg.Starts {
			on := t >= start
			same = same && on == f.active[i]
			f.active[i] = on
		}
	}
	snap, err := f.topo.Round(t)
	if err != nil {
		f.lastBuilds = -1
		return err
	}
	builds := f.topo.Stats().Builds
	delivered, err := f.flood(snap, same && builds == f.lastBuilds)
	if err != nil {
		clear(f.changed)
		f.lastBuilds = -1
		return err
	}
	f.changed, f.last = f.last, f.changed
	clear(f.changed)
	f.lastBuilds = builds
	f.messages += delivered
	f.round = t
	return nil
}

// flood unions every active destination's active in-neighbour sets into
// its own — skipping those the last round left unchanged when skip is
// set — commits the sets when any changed, and returns the number of
// messages delivered: one per edge from an active source into an active
// destination, self-loops included, as the generic engines count them.
// It walks the destinations and their edges in the snapshot's order and
// checks each edge's slot as deliverRange does, so a snapshot whose slots
// do not fit the model fails at the same edge with the same error, before
// any set changes.
func (f *Flood) flood(snap *topology.Snapshot, skip bool) (int64, error) {
	sets, off, active, last, portSlots, u := f.sets, f.off, f.active, f.last, f.desc.PortSlots, &f.union
	starts, srcs, slots, changed, spareOff := snap.Start, snap.Src, snap.Slot, f.changed, f.spareOff
	var delivered int64
	var next []float64
	writing := false
	for j := range f.out {
		base := sets[off[j]:off[j+1]]
		// from is the one in-neighbour set to merge, until a second one
		// stages them all in u.
		from, staged := -1, false
		if active == nil || active[j] {
			for e := starts[j]; e < starts[j+1]; e++ {
				src := int(srcs[e])
				if active != nil && !active[src] {
					continue
				}
				sent := 1
				if portSlots {
					sent = snap.OutDegree(src)
				}
				if slot := slots[e]; slot < 0 || int(slot) >= sent {
					return 0, fmt.Errorf("engine: agent %d: edge port %d out of range 1..%d", src, snap.Port[e], sent)
				}
				delivered++
				// A set's union with itself is the set, and a set the
				// last round left unchanged was merged then.
				if src == j || src == from || skip && !last[src] {
					continue
				}
				if from < 0 {
					from = src
					continue
				}
				if !staged {
					staged = true
					u.Reset(base)
					u.Add(sets[off[from]:off[from+1]])
				}
				u.Add(sets[off[src]:off[src+1]])
			}
		}
		var b []float64
		if from >= 0 && !staged {
			b = sets[off[from]:off[from+1]]
		}
		if writing && !staged && len(next)+len(base)+len(b) <= cap(next) {
			next, changed[j] = model.AppendUnion(next, base, b)
			spareOff[j+1] = len(next)
			continue
		}
		next, writing = f.write(next, writing, j, base, b, staged)
	}
	if writing {
		f.commit(next)
	}
	return delivered, nil
}

// write puts agent j's next set — base united with b, or with the sets
// staged in f.union when staged — in the spare arena next, and reports
// whether the round is writing. Until the round's first change it writes
// nothing (model.Covers tests the two-set case); at the first changed set
// it copies the unchanged sets before it in one piece. The room a union
// needs is checked against |base|+|b| and counted exactly only when that
// bound does not fit, so reserve, which reallocates next, sees the floats
// the round is known to need.
func (f *Flood) write(next []float64, writing bool, j int, base, b []float64, staged bool) ([]float64, bool) {
	u := &f.union
	at := len(next)
	if !writing {
		if staged && !u.Grows() || !staged && model.Covers(base, b) {
			return nil, false
		}
		next, at = f.spare[:0], f.off[j]
	}
	size := len(base) + len(b)
	if staged {
		size = u.Len()
	}
	if at+size > cap(next) {
		if !staged {
			size = model.UnionLen(base, b)
		}
		if at+size > cap(next) {
			next = f.reserve(next, at+size, j)
		}
	}
	if !writing {
		next = append(next, f.sets[:at]...)
		copy(f.spareOff[:j+1], f.off[:j+1])
	}
	if staged {
		f.changed[j] = u.Grows()
		next = u.AppendTo(next)
	} else {
		next, f.changed[j] = model.AppendUnion(next, base, b)
	}
	f.spareOff[j+1] = len(next)
	return next, true
}

// reserve returns next moved to a new arena for need floats through agent
// j. The new arena holds the live floats plus the growth so far
// extrapolated over all n agents, so a round whose sets grow evenly
// reallocates about once. Sets only grow, so the round's sets need at
// least the live floats plus the growth so far, and the arena holds at
// most twice that: a hub early in agent order does not reserve its growth
// n times over.
func (f *Flood) reserve(next []float64, need, j int) []float64 {
	growth := need - f.off[j+1]
	extrapolated := len(f.sets) + int(int64(growth)*int64(len(f.out))/int64(j+1))
	grown := make([]float64, len(next), min(extrapolated, 2*(len(f.sets)+growth)))
	copy(grown, next)
	return grown
}

// commit makes next, holding every agent's next set, the live arena and
// the old one the spare, recomputing the outputs of the changed sets.
// next holds at most twice the live floats (reserve sizes it so, and a
// reused spare held at most twice the fewer floats of an earlier round),
// and when the two arenas' capacities add up to more than that, commit
// drops the spare.
func (f *Flood) commit(next []float64) {
	f.sets, f.spare = next, f.sets
	f.off, f.spareOff = f.spareOff, f.off
	if cap(next)+cap(f.spare) > 2*len(next) {
		f.spare = nil
	}
	for i, c := range f.changed {
		if c {
			f.out[i] = f.probe.SetOutput(f.sets[f.off[i]:f.off[i+1]])
		}
	}
}

// N returns the number of agents.
func (f *Flood) N() int { return len(f.out) }

// Round returns the number of completed rounds.
func (f *Flood) Round() int { return f.round }

// Outputs returns the current outputs x_i(t), boxed into a fresh slice.
func (f *Flood) Outputs() []model.Value {
	out := make([]model.Value, len(f.out))
	for i, v := range f.out {
		out[i] = v
	}
	return out
}

// Floats returns the current outputs in the kernel's own vector, valid
// until the next Step or Corrupt; callers must not write it.
func (f *Flood) Floats() []float64 { return f.out }

// Stats returns cumulative execution statistics; a run without faults
// has no fault counts.
func (f *Flood) Stats() Stats {
	return Stats{Rounds: f.round, MessagesDelivered: f.messages}
}

// TopologyStats reports the topology provider's build counters, as the
// other runners' does.
func (f *Flood) TopologyStats() topology.BuildStats { return f.topo.Stats() }

// Corrupt unions into agent i's set the value agent i's Corrupt(junk +
// i·7919) would add — the junk the other runners hand agent i — when
// the agents are Corruptible, and reports how many were corrupted (none
// after Close). The next round merges every in-neighbour set.
func (f *Flood) Corrupt(junk int64) int {
	if f.closed || !f.corrupts {
		return 0
	}
	var next []float64
	writing := false
	for i := range f.out {
		v := [1]float64{f.probe.CorruptValue(junk + int64(i)*7919)}
		next, writing = f.write(next, writing, i, f.sets[f.off[i]:f.off[i+1]], v[:], false)
	}
	if writing {
		f.commit(next)
	}
	clear(f.changed)
	f.lastBuilds = -1
	return len(f.out)
}

// Close marks the kernel closed; Step after Close fails.
func (f *Flood) Close() { f.closed = true }
