package engine

import (
	"fmt"
	"runtime"
	"sync"

	"anonnet/internal/topology"
)

// Sharded is the batch runner for large networks: agents are partitioned
// into contiguous shards (one per core by default), and each pipeline
// stage fans the shards out over goroutines and joins them on a single
// sync.WaitGroup barrier — no per-agent channels, no per-round inbox
// allocation. Delivery runs destination-major over the shared topology
// snapshot: each destination is owned by exactly one shard, so shards fill
// their own agents' inboxes from shard-to-shard reads of the sent buffers
// without locks.
//
// The observable behaviour is identical to the sequential Engine for equal
// Config: the core's delivery order and the serial seeded shuffle are the
// same code, so traces are equal byte for byte. The property tests in
// sharded_test.go assert this across all five algorithm packages and
// arbitrary shard counts, including counts that do not divide n.
//
// Inbox slices handed to Agent.Receive are owned by the engine and reused
// in later rounds; agents must copy anything they retain (every agent in
// this repository already does — the model contract only promises the slice
// for the duration of Receive).
type Sharded struct {
	*core
	shards int

	// shardErr[k] is the first error shard k hit in the current phase.
	shardErr []error
	// shardMsgs[k] counts deliveries made by shard k in the current round.
	shardMsgs []int64
	// shardFaults[k] counts fault applications by shard k in the current
	// round; summed into the core's totals after the delivery barrier.
	shardFaults []FaultStats
}

var _ Runner = (*Sharded)(nil)

// NewSharded validates cfg, instantiates the agents, and returns a sharded
// engine with the given shard count (≤ 0 selects runtime.GOMAXPROCS(0)).
// Shard counts need not divide the agent count; counts above it are capped
// at it, because the extra shards could only ever be empty.
func NewSharded(cfg Config, shards int) (*Sharded, error) {
	core, err := newCore(cfg, "sharded")
	if err != nil {
		return nil, err
	}
	shards = parallelism(shards, core.N())
	return &Sharded{
		core:        core,
		shards:      shards,
		shardErr:    make([]error, shards),
		shardMsgs:   make([]int64, shards),
		shardFaults: make([]FaultStats, shards),
	}, nil
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return s.shards }

// parallelism resolves a requested shard or worker count over n agents:
// ≤ 0 selects runtime.GOMAXPROCS(0), and the result is capped at n (but
// stays ≥ 1), so no constructor allocates or spawns for a range that
// could only be empty.
func parallelism(k, n int) int {
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	return max(1, min(k, n))
}

// shardRange returns the half-open agent range of shard k: contiguous
// blocks of ⌈n/shards⌉-or-⌊n/shards⌋ agents.
func shardRange(n, shards, k int) (lo, hi int) {
	return k * n / shards, (k + 1) * n / shards
}

// forShards runs fn(k, lo, hi) on every non-empty shard concurrently and
// joins them on one WaitGroup barrier. Panics in agent code are recovered
// into the shard's error slot.
func (s *Sharded) forShards(fn func(k, lo, hi int)) {
	n := s.N()
	var wg sync.WaitGroup
	for k := 0; k < s.shards; k++ {
		lo, hi := shardRange(n, s.shards, k)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil && s.shardErr[k] == nil {
					s.shardErr[k] = fmt.Errorf("engine: panic in shard %d (agents %d..%d): %v", k, lo, hi-1, r)
				}
			}()
			fn(k, lo, hi)
		}(k, lo, hi)
	}
	wg.Wait()
}

// firstShardErr returns the lowest-shard error of the last phase and
// clears the error buffer.
func (s *Sharded) firstShardErr() error {
	var err error
	for k := range s.shardErr {
		if err == nil && s.shardErr[k] != nil {
			err = s.shardErr[k]
		}
		s.shardErr[k] = nil
	}
	return err
}

// Step executes one round with the same semantics (and trace) as
// Engine.Step: parallel send, parallel destination-major delivery, serial
// seeded shuffle, parallel receive.
func (s *Sharded) Step() error { return s.step(s) }

func (s *Sharded) restart(t int) error { return s.restartAll(t) }

// send drives each shard's agents' sending functions behind the barrier.
func (s *Sharded) send(t int, snap *topology.Snapshot) error {
	s.buffers(snap)
	s.forShards(func(k, lo, hi int) {
		if err := s.sendRange(snap, lo, hi); err != nil {
			s.shardErr[k] = err
		}
	})
	return s.firstShardErr()
}

// exchange delivers destination-major per shard — fault fates are pure
// functions of (round, src, dst), so evaluating them from shard goroutines
// yields the same outcomes as the sequential engine — then sums the
// per-shard counters and runs the serial seeded shuffle.
func (s *Sharded) exchange(t int, snap *topology.Snapshot) error {
	s.forShards(func(k, lo, hi int) {
		delivered, err := s.deliverRange(snap, t, lo, hi, &s.shardFaults[k])
		if err != nil {
			s.shardErr[k] = err
			return
		}
		s.shardMsgs[k] = delivered
	})
	if err := s.firstShardErr(); err != nil {
		return err
	}
	for k := range s.shardMsgs {
		s.messages += s.shardMsgs[k]
		s.shardMsgs[k] = 0
		s.faults.add(s.shardFaults[k])
		s.shardFaults[k] = FaultStats{}
	}
	s.shuffleAll()
	return nil
}

// receive applies each shard's agents' transition functions behind the
// barrier.
func (s *Sharded) receive(t int, snap *topology.Snapshot) error {
	s.forShards(func(k, lo, hi int) {
		s.receiveRange(lo, hi)
	})
	return s.firstShardErr()
}
