package engine

import (
	"fmt"
	"runtime"
	"sync"

	"anonnet/internal/model"
	"anonnet/internal/topology"
)

// ParallelVec is the multi-worker version of the vectorized kernel: the
// agent range is partitioned into contiguous slabs, one per persistent
// worker goroutine, and every stage of the round — send, gather,
// accumulate, receive — runs slab-parallel over the shared flat SoA
// buffers and the immutable topology snapshot. Workers never touch each
// other's destinations, so the only synchronization is the channel barrier
// between phases, and the steady-state round loop stays at zero heap
// allocations (asserted by tests and the CI allocation gate).
//
// The trace contract is the hard part. The seeded Fisher–Yates shuffle
// consumes the shared RNG with rejection sampling, so the number of draws
// a destination consumes depends on its in-degree — per-worker RNG states
// cannot be precomputed. Instead the round splits the shuffle in two:
// workers gather each destination's contribution list (and its length) in
// parallel, then the engine goroutine replays the sequential engine's
// exact draw sequence — destinations in agent-index order, active only —
// recording each draw's swap target into a flat buffer, and finally the
// workers apply their slab's recorded swaps and sum the rows in parallel.
// The RNG is only ever touched by the engine goroutine, draw-for-draw as
// the sequential engine touches it, so checkpoint draw counting and the
// SHA-256 golden traces carry over unchanged. The serial pass is O(total
// messages) integer work against the O(total messages · width) float work
// it fans out, so it stays a small fraction of the round.
type ParallelVec struct {
	*core
	vecs     []model.VectorAgent
	width    int
	universe []float64

	// Flat SoA state, shared across workers: agent i's outgoing message
	// occupies rows[i·w : (i+1)·w]; destination j's sum accumulates in
	// sums[j·w : (j+1)·w]; counts[j] is destination j's multiset size.
	// Each index is written by exactly one worker per phase.
	rows   []float64
	sums   []float64
	counts []int32

	workers int
	shard   []pvShard

	// swaps holds the recorded Fisher–Yates swap targets of the current
	// round, destination-major in agent-index order; swapBase[k] is the
	// offset where worker k's slab begins. Written by the engine goroutine
	// between the gather and accumulate barriers, read by the workers.
	swaps    []int32
	swapBase []int32

	vpend *vecPending

	reqs []chan pvReq
	done chan struct{}
	wg   sync.WaitGroup
}

var _ Runner = (*ParallelVec)(nil)

// pvShard is one worker's slab-local state. refs accumulates the
// contribution lists of the slab's destinations back to back (refStart
// delimits them), late the delayed rows flushed for the whole round —
// unlike the single-threaded kernel, gather and accumulate are separate
// phases here, so both must survive the barrier between them.
type pvShard struct {
	refs     []int32
	refStart []int32 // hi-lo+1 entries, offsets into refs
	late     []float64
	faults   FaultStats
	messages int64
	err      error
}

type pvPhase int

const (
	pvSend pvPhase = iota + 1
	pvGather
	pvAccum
	pvReceive
	pvStop
)

type pvReq struct {
	phase pvPhase
	t     int
	snap  *topology.Snapshot
}

// NewParallelVec validates cfg like NewVectorized and returns a parallel
// vectorized engine with the given worker count (≤ 0 selects
// runtime.GOMAXPROCS(0)). Worker counts need not divide the agent count;
// counts above it are capped at it, because the extra workers could only
// ever be idle. Callers must Close the engine to stop the workers.
func NewParallelVec(cfg Config, workers int) (*ParallelVec, error) {
	core, vecs, width, universe, err := newVecCore(cfg, "parallelvec")
	if err != nil {
		return nil, err
	}
	n := core.N()
	workers = parallelism(workers, n)
	p := &ParallelVec{
		core:     core,
		vecs:     vecs,
		width:    width,
		universe: universe,
		rows:     make([]float64, n*width),
		sums:     make([]float64, n*width),
		counts:   make([]int32, n),
		workers:  workers,
		shard:    make([]pvShard, workers),
		swapBase: make([]int32, workers),
		reqs:     make([]chan pvReq, workers),
		done:     make(chan struct{}, workers),
	}
	if cfg.Faults != nil {
		p.vpend = newVecPending(n, width)
	}
	for k := 0; k < workers; k++ {
		lo, hi := shardRange(n, workers, k)
		p.shard[k].refStart = make([]int32, hi-lo+1)
		p.reqs[k] = make(chan pvReq, 1)
		p.wg.Add(1)
		go p.worker(k, lo, hi)
	}
	return p, nil
}

// parallelism resolves a requested worker count over n agents: ≤ 0
// selects runtime.GOMAXPROCS(0), and the result is capped at n (but stays
// ≥ 1), so the constructor spawns no worker whose slab could only be
// empty.
func parallelism(k, n int) int {
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	return max(1, min(k, n))
}

// shardRange returns the half-open agent range of worker k's slab:
// contiguous blocks of ⌈n/workers⌉-or-⌊n/workers⌋ agents.
func shardRange(n, workers, k int) (lo, hi int) {
	return k * n / workers, (k + 1) * n / workers
}

// Workers returns the worker count.
func (p *ParallelVec) Workers() int { return p.workers }

// Width returns the per-message vector width, for white-box tests.
func (p *ParallelVec) Width() int { return p.width }

// Step executes one round with the same semantics (and trace) as
// Engine.Step.
func (p *ParallelVec) Step() error { return p.step(p) }

// worker owns agents [lo, hi): it blocks on its request channel, runs the
// requested phase over its slab, and signals the barrier. Panics in agent
// code are recovered into the shard's error slot.
func (p *ParallelVec) worker(k, lo, hi int) {
	defer p.wg.Done()
	for req := range p.reqs[k] {
		if req.phase == pvStop {
			p.done <- struct{}{}
			return
		}
		p.runPhase(k, lo, hi, req)
		p.done <- struct{}{}
	}
}

func (p *ParallelVec) runPhase(k, lo, hi int, req pvReq) {
	defer func() {
		if r := recover(); r != nil && p.shard[k].err == nil {
			p.shard[k].err = fmt.Errorf("engine: panic in parallel vec worker %d (agents %d..%d): %v", k, lo, hi-1, r)
		}
	}()
	w := p.width
	switch req.phase {
	case pvSend:
		for i := lo; i < hi; i++ {
			if p.active[i] {
				p.desc.VecSend(p.vecs[i], req.snap.OutDegree(i), p.rows[i*w:(i+1)*w:(i+1)*w])
			}
		}
	case pvGather:
		sh := &p.shard[k]
		sh.refs = sh.refs[:0]
		sh.late = sh.late[:0]
		view := req.snap.DstRange(lo, hi)
		for j := lo; j < hi; j++ {
			sh.refStart[j-lo] = int32(len(sh.refs))
			sh.refs = gatherDest(p.core, view, req.t, j, w, p.rows, p.vpend, sh.refs, &sh.late, &sh.faults)
			count := int32(len(sh.refs)) - sh.refStart[j-lo]
			p.counts[j] = count
			if p.active[j] {
				sh.messages += int64(count)
			}
			sum := p.sums[j*w : (j+1)*w]
			for c := range sum {
				sum[c] = 0
			}
		}
		sh.refStart[hi-lo] = int32(len(sh.refs))
	case pvAccum:
		sh := &p.shard[k]
		pos := p.swapBase[k]
		for j := lo; j < hi; j++ {
			if !p.active[j] {
				continue
			}
			refs := sh.refs[sh.refStart[j-lo]:sh.refStart[j-lo+1]]
			if len(refs) > 1 {
				applySwaps(refs, p.swaps[pos:])
				pos += int32(len(refs) - 1)
			}
			accumulateRows(p.sums[j*w:(j+1)*w], refs, w, p.rows, sh.late)
		}
	case pvReceive:
		for j := lo; j < hi; j++ {
			if p.active[j] {
				p.vecs[j].ReceiveVector(p.sums[j*w:(j+1)*w], int(p.counts[j]))
			}
		}
	}
}

// barrier dispatches req to every worker, waits for all of them, and
// returns (clearing) the first shard error.
func (p *ParallelVec) barrier(req pvReq) error {
	for k := range p.reqs {
		p.reqs[k] <- req
	}
	for range p.reqs {
		<-p.done
	}
	var err error
	for k := range p.shard {
		if err == nil && p.shard[k].err != nil {
			err = p.shard[k].err
		}
		p.shard[k].err = nil
	}
	return err
}

// restart applies the crash-restart channel on the engine goroutine (the
// workers are quiescent between rounds).
func (p *ParallelVec) restart(t int) error {
	return restartVecAgents(p.core, t, p.vecs, p.universe, p.width)
}

// send fans the sending functions out over the worker slabs.
func (p *ParallelVec) send(t int, snap *topology.Snapshot) error {
	return p.barrier(pvReq{phase: pvSend, t: t, snap: snap})
}

// exchange is gather (parallel) → draw recording (serial) → swap replay +
// accumulate (parallel). The serial middle pass is the shuffle split
// described on the type: it performs, on the shared RNG, exactly the
// bounded draws the sequential engine's per-destination rand.Shuffle
// performs — destinations in agent-index order, active only, sizes from
// the gathered counts — and records each draw's swap target so the
// workers can apply the permutations without touching the RNG.
func (p *ParallelVec) exchange(t int, snap *topology.Snapshot) error {
	if err := p.barrier(pvReq{phase: pvGather, t: t, snap: snap}); err != nil {
		return err
	}
	p.swaps = p.swaps[:0]
	for k := 0; k < p.workers; k++ {
		lo, hi := shardRange(p.N(), p.workers, k)
		p.swapBase[k] = int32(len(p.swaps))
		for j := lo; j < hi; j++ {
			if !p.active[j] {
				continue
			}
			for i := int(p.counts[j]) - 1; i > 0; i-- {
				p.swaps = append(p.swaps, randInt31n(p.rng, int32(i+1)))
			}
		}
		p.messages += p.shard[k].messages
		p.faults.add(p.shard[k].faults)
		p.shard[k].messages = 0
		p.shard[k].faults = FaultStats{}
	}
	return p.barrier(pvReq{phase: pvAccum, t: t, snap: snap})
}

// receive applies the vector transition functions over the worker slabs.
func (p *ParallelVec) receive(t int, snap *topology.Snapshot) error {
	return p.barrier(pvReq{phase: pvReceive, t: t, snap: snap})
}

// applySwaps replays a recorded Fisher–Yates permutation: swaps[s] is the
// target drawn for position i = len(refs)-1-s, exactly as shuffleRefs
// would have drawn it.
func applySwaps(refs, swaps []int32) {
	s := 0
	for i := len(refs) - 1; i > 0; i-- {
		j := swaps[s]
		s++
		refs[i], refs[j] = refs[j], refs[i]
	}
}

// Close stops the worker goroutines. It is idempotent.
func (p *ParallelVec) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for k := range p.reqs {
		p.reqs[k] <- pvReq{phase: pvStop}
	}
	for range p.reqs {
		<-p.done
	}
	for k := range p.reqs {
		close(p.reqs[k])
	}
	p.wg.Wait()
}
