package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"anonnet/internal/model"
	"anonnet/internal/topology"
)

// Vectorized is the zero-allocation kernel runner for linear mass-passing
// algorithms: agents implementing model.VectorAgent expose their round
// message as a fixed-width float64 tuple, and the engine executes rounds
// entirely over two flat n·width SoA buffers — one for the sent rows, one
// for the per-destination sums — with a gather over the shared topology
// snapshot's destination-major layout. No message is ever boxed into an
// interface and the steady-state round loop performs zero heap allocations
// (asserted by tests and the bench-smoke CI job).
//
// The observable behaviour is identical to the sequential Engine for equal
// Config: per destination, the contributing rows are gathered in the
// delivery-order invariant (sources ascending, edge insertion order, then
// due delayed deliveries), permuted by the shared seeded RNG with exactly
// the rand.Shuffle call the generic engines make, and summed in the
// permuted order — so float rounding, and hence traces, agree byte for
// byte. Property tests in vectorized_test.go assert this across seeds,
// models, async starts, and fault plans.
type Vectorized struct {
	*core
	vecs     []model.VectorAgent // the same agents, through the vector contract
	width    int
	universe []float64

	// Double-buffered flat SoA state: agent i's outgoing message occupies
	// rows[i·w : (i+1)·w]; destination j's component-wise sum accumulates
	// in sums[j·w : (j+1)·w]. Both are reused round over round.
	rows   []float64
	sums   []float64
	counts []int32

	// gather is the per-destination contribution list, reused across
	// destinations and rounds: entries ≥ 0 index a source agent's sent
	// row, entries < 0 are ^k for row k of late (delayed messages come
	// due).
	gather []int32
	// late holds the rows of delayed messages flushed for the current
	// destination; the rows buffer is rewritten next round, so delayed
	// rows must be copied out of it and live here until summed.
	late []float64

	vpend *vecPending
}

var _ Runner = (*Vectorized)(nil)

// ErrNotVectorizable reports that a Config cannot run on the vectorized
// engine: its factory builds agents that do not implement
// model.VectorAgent, or that decline vectorization (a non-linear variant),
// or the model is output-port aware. NewRunner, the one selection point
// of the job runner and the facade, matches it with errors.Is and falls
// back to the sequential path (the flooding kernel or the sequential
// engine), whose traces are identical anyway.
var ErrNotVectorizable = errors.New("engine: config is not vectorizable")

// NewVectorized validates cfg, instantiates the agents through the
// model.VectorAgent contract, and returns a vectorized engine positioned
// before round 1. It returns an error wrapping ErrNotVectorizable when the
// algorithm cannot run on the vector kernel.
func NewVectorized(cfg Config) (*Vectorized, error) {
	core, vecs, width, universe, err := newVecCore(cfg, "vectorized")
	if err != nil {
		return nil, err
	}
	n := core.N()
	v := &Vectorized{
		core:     core,
		vecs:     vecs,
		width:    width,
		universe: universe,
		rows:     make([]float64, n*width),
		sums:     make([]float64, n*width),
		counts:   make([]int32, n),
	}
	if cfg.Faults != nil {
		v.vpend = newVecPending(n, width)
	}
	return v, nil
}

// newVecCore is the shared constructor half of the vector executors:
// validate cfg for vectorizability, build the core, and commit every agent
// to one vector width through model.VectorAgent.
func newVecCore(cfg Config, name string) (*core, []model.VectorAgent, int, []float64, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, 0, nil, err
	}
	if desc, err := model.Lookup(cfg.Kind); err == nil && desc.VecSend == nil {
		return nil, nil, 0, nil, fmt.Errorf("%w: the %s model's sending function has no fixed-width vector form", ErrNotVectorizable, desc.Name)
	}
	core, err := newCore(cfg, name)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	universe := universeOf(cfg.Inputs)
	vecs := make([]model.VectorAgent, core.N())
	width := 0
	for i, a := range core.agents {
		va, ok := a.(model.VectorAgent)
		if !ok {
			return nil, nil, 0, nil, fmt.Errorf("%w: agent %d (%T) does not implement model.VectorAgent", ErrNotVectorizable, i, a)
		}
		w := va.InitVector(universe)
		if w <= 0 {
			return nil, nil, 0, nil, fmt.Errorf("%w: agent %d (%T) declined vectorization", ErrNotVectorizable, i, a)
		}
		if i == 0 {
			width = w
		} else if w != width {
			return nil, nil, 0, nil, fmt.Errorf("engine: agent %d reports vector width %d, agent 0 reported %d", i, w, width)
		}
		vecs[i] = va
	}
	return core, vecs, width, universe, nil
}

// CanVectorize reports whether cfg can run on the vectorized engine, by
// probing one agent from the factory (every agent of an execution comes
// from the same factory, so one probe decides for all). It never
// mis-selects: algorithms whose agents do not implement model.VectorAgent,
// or whose variant declines vectorization, report false.
func CanVectorize(cfg Config) bool {
	if cfg.validate() != nil || len(cfg.Inputs) == 0 {
		return false
	}
	if desc, err := model.Lookup(cfg.Kind); err != nil || desc.VecSend == nil {
		return false
	}
	a := cfg.Factory(cfg.Inputs[0])
	va, ok := a.(model.VectorAgent)
	if !ok {
		return false
	}
	return va.InitVector(universeOf(cfg.Inputs)) > 0
}

// universeOf returns the sorted distinct input values — the dense layout
// the per-value (frequency) vector agents index by.
func universeOf(inputs []model.Input) []float64 {
	vals := make([]float64, 0, len(inputs))
	for _, in := range inputs {
		vals = append(vals, in.Value)
	}
	sort.Float64s(vals)
	u := vals[:0]
	for _, v := range vals {
		if len(u) == 0 || u[len(u)-1] != v {
			u = append(u, v)
		}
	}
	return u
}

// Width returns the per-message vector width, for white-box tests.
func (v *Vectorized) Width() int { return v.width }

// Step executes one round with the same semantics (and trace) as
// Engine.Step: restart, send into the flat rows, destination-major gather
// with fault fates, seeded shuffle of the contribution order, scatter-add,
// receive.
func (v *Vectorized) Step() error { return v.step(v) }

// restart applies the crash-restart channel, re-initializing rebuilt agents
// through the vector contract so their width commitment stays intact.
func (v *Vectorized) restart(t int) error {
	return restartVecAgents(v.core, t, v.vecs, v.universe, v.width)
}

// restartVecAgents is the crash-restart stage of the vector executors:
// rebuilt agents re-enter through model.VectorAgent so their width
// commitment stays intact. Shared by the vectorized and parallel
// vectorized runners.
func restartVecAgents(c *core, t int, vecs []model.VectorAgent, universe []float64, width int) error {
	inj := c.cfg.Faults
	if inj == nil {
		return nil
	}
	for i := range c.agents {
		if !inj.Restart(t, i) {
			continue
		}
		a := c.cfg.Factory(c.cfg.Inputs[i])
		if a == nil {
			return fmt.Errorf("engine: factory returned nil agent restarting agent %d at round %d", i, t)
		}
		va, ok := a.(model.VectorAgent)
		if !ok {
			return fmt.Errorf("engine: restarted agent %d (%T) does not implement model.VectorAgent", i, a)
		}
		if w := va.InitVector(universe); w != width {
			return fmt.Errorf("engine: restarted agent %d reports vector width %d, want %d", i, w, width)
		}
		c.agents[i], vecs[i] = a, va
	}
	return nil
}

// send has each active agent write its row of the flat rows buffer,
// through the model's registered vectorization hook.
func (v *Vectorized) send(t int, snap *topology.Snapshot) error {
	w := v.width
	for i, va := range v.vecs {
		if v.active[i] {
			v.desc.VecSend(va, snap.OutDegree(i), v.rows[i*w:(i+1)*w:(i+1)*w])
		}
	}
	return nil
}

// exchange runs destination-major like the sequential engine, fused per
// destination: gather the contributing rows of destination j in the
// delivery-order invariant, apply fault fates (self-loops exempt), flush
// due delayed rows, shuffle the contribution order with the shared seeded
// RNG, and sum the rows in the shuffled order so float rounding matches
// the generic engines' Receive exactly.
func (v *Vectorized) exchange(t int, snap *topology.Snapshot) error {
	w := v.width
	view := snap.DstRange(0, v.N())
	for j := range v.vecs {
		v.late = v.late[:0]
		refs := gatherDest(v.core, view, t, j, w, v.rows, v.vpend, v.gather[:0], &v.late, &v.faults)
		count := len(refs)
		sum := v.sums[j*w : (j+1)*w]
		for c := range sum {
			sum[c] = 0
		}
		if v.active[j] {
			v.messages += int64(count)
			shuffleRefs(v.rng, refs)
			accumulateRows(sum, refs, w, v.rows, v.late)
		}
		v.counts[j] = int32(count)
		v.gather = refs[:0]
	}
	return nil
}

// gatherDest builds destination j's contribution list in the delivery-order
// invariant — sources ascending, edge insertion order, then due delayed
// rows — applying fault fates (self-loops exempt) with counts recorded in
// fs. Entries ≥ 0 index a sent row; entries < 0 are ^k for row k of the
// caller's late scratch (delayed rows come due, appended by vpend.flush).
// Shared by the vectorized executor (one call per destination, late reset
// each time) and the parallel vectorized workers (one late scratch per
// worker for the whole round, so refs survive until the accumulate phase).
func gatherDest(c *core, view topology.DstView, t, j, w int, rows []float64, vpend *vecPending, refs []int32, late *[]float64, fs *FaultStats) []int32 {
	snap, inj := view.Snap, c.cfg.Faults
	switch {
	case !c.active[j]:
	case inj == nil:
		for e := snap.Start[j]; e < snap.Start[j+1]; e++ {
			if src := snap.Src[e]; c.active[src] {
				refs = append(refs, src)
			}
		}
	default:
		for e := snap.Start[j]; e < snap.Start[j+1]; e++ {
			src := snap.Src[e]
			if !c.active[src] {
				continue
			}
			if int(src) == j {
				refs = append(refs, src)
				continue
			}
			f := inj.MessageFate(t, int(src), j)
			if f.Drop {
				fs.Dropped++
				continue
			}
			copies := 1
			if f.Dup > 0 {
				copies += f.Dup
				fs.Duplicated += int64(f.Dup)
			}
			if f.Delay > 0 {
				fs.Delayed += int64(copies)
				for c := 0; c < copies; c++ {
					vpend.add(j, t+f.Delay, rows[int(src)*w:(int(src)+1)*w])
				}
				continue
			}
			for c := 0; c < copies; c++ {
				refs = append(refs, src)
			}
		}
	}
	if vpend != nil {
		refs = vpend.flush(j, t, refs, late, c.active[j])
	}
	return refs
}

// receive applies the vector transition functions over the accumulated
// sums.
func (v *Vectorized) receive(t int, snap *topology.Snapshot) error {
	w := v.width
	for j, va := range v.vecs {
		if v.active[j] {
			va.ReceiveVector(v.sums[j*w:(j+1)*w], int(v.counts[j]))
		}
	}
	return nil
}

// accumulateRows sums the referenced rows into sum, in slice order, one
// running total per component — the same addition sequence as the generic
// engines' message loop, so the rounding is identical. The width-1 and
// width-2 cases keep the totals in registers; they are the hot shapes
// (Push-Sum averages and Metropolis). Shared by the vectorized and
// parallel vectorized executors; sum must be zeroed by the caller.
func accumulateRows(sum []float64, refs []int32, w int, rows, late []float64) {
	switch w {
	case 1:
		s0 := 0.0
		for _, r := range refs {
			s0 += rowOf(r, 1, rows, late)[0]
		}
		sum[0] = s0
	case 2:
		s0, s1 := 0.0, 0.0
		for _, r := range refs {
			row := rowOf(r, 2, rows, late)
			s0 += row[0]
			s1 += row[1]
		}
		sum[0], sum[1] = s0, s1
	default:
		for _, r := range refs {
			row := rowOf(r, w, rows, late)
			for c := 0; c < w; c++ {
				sum[c] += row[c]
			}
		}
	}
}

// rowOf resolves a gather reference: ≥ 0 indexes a sent row, < 0 is ^k
// into the late scratch.
func rowOf(r int32, w int, rows, late []float64) []float64 {
	if r >= 0 {
		return rows[int(r)*w : (int(r)+1)*w]
	}
	k := int(^r)
	return late[k*w : (k+1)*w]
}

// shuffleRefs applies exactly rand.Shuffle's Fisher–Yates permutation to
// refs, inlined to spare the hottest loop of the round a per-swap closure
// call. It must consume the RNG draw-for-draw like rand.Shuffle so
// vectorized traces stay byte-identical to the generic engines'; the
// trace-equality property tests fail on any divergence.
func shuffleRefs(rng *rand.Rand, refs []int32) {
	for i := len(refs) - 1; i > 0; i-- {
		j := randInt31n(rng, int32(i+1))
		refs[i], refs[j] = refs[j], refs[i]
	}
}

// randInt31n mirrors math/rand's unexported int31n — the bounded draw
// rand.Shuffle makes per swap: an unbiased multiply-shift with rejection,
// consuming Uint32s from the shared source. math/rand is frozen, so the
// algorithm, and hence the draw sequence, is stable.
func randInt31n(r *rand.Rand, n int32) int32 {
	v := r.Uint32()
	prod := uint64(v) * uint64(n)
	low := uint32(prod)
	if low < uint32(n) {
		thresh := uint32(-n) % uint32(n)
		for low < thresh {
			v = r.Uint32()
			prod = uint64(v) * uint64(n)
			low = uint32(prod)
		}
	}
	return int32(prod >> 32)
}

// vecPending is the vector analogue of pendingStore: delayed rows per
// destination, appended in delivery-iteration order and flushed in that
// order, with the same keep-compaction. Rows are copied out of the sent
// buffer at add time because that buffer is rewritten every round.
type vecPending struct {
	width int
	byDst []vecQueue
}

type vecQueue struct {
	due []int
	buf []float64 // len(due)·width, row k at buf[k·width : (k+1)·width]
}

func newVecPending(n, width int) *vecPending {
	return &vecPending{width: width, byDst: make([]vecQueue, n)}
}

// add enqueues a copy of row for dst at round due.
func (p *vecPending) add(dst, due int, row []float64) {
	q := &p.byDst[dst]
	q.due = append(q.due, due)
	q.buf = append(q.buf, row...)
}

// flush moves every row due by round t into late (when deliver is true; an
// inactive destination loses its due rows), appending a ^k reference to
// refs for each, and compacts the rest in place.
func (p *vecPending) flush(dst, t int, refs []int32, late *[]float64, deliver bool) []int32 {
	q := &p.byDst[dst]
	if len(q.due) == 0 {
		return refs
	}
	w := p.width
	keep := 0
	for idx, due := range q.due {
		if due <= t {
			if deliver {
				k := len(*late) / w
				*late = append(*late, q.buf[idx*w:(idx+1)*w]...)
				refs = append(refs, int32(^k))
			}
		} else {
			q.due[keep] = due
			copy(q.buf[keep*w:(keep+1)*w], q.buf[idx*w:(idx+1)*w])
			keep++
		}
	}
	q.due = q.due[:keep]
	q.buf = q.buf[:keep*w]
	return refs
}
