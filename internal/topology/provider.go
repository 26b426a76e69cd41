package topology

import (
	"fmt"
	"sync"
	"time"

	"anonnet/internal/dynamic"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// BuildStats counts the snapshot builds a Provider has performed. For a
// static schedule Builds stays at 1 however many rounds run, and at 0 for
// a provider over a fixed snapshot; dynamic schedules (and churn-wrapped
// ones) pay one build per distinct round graph.
type BuildStats struct {
	// Builds is the number of CSR builds performed.
	Builds int64
	// BuildNanos is the wall-clock time spent inside those builds, the
	// §2.1 validation of each included.
	BuildNanos int64
}

// Provider turns a dynamic.Schedule into a stream of validated Snapshots,
// one per round. It caches by pointer identity — schedules that return the
// same *graph.Graph (dynamic.Static, and AsyncStart past the last start)
// get the cached snapshot back without revalidation — and recycles retired
// snapshots' arrays through a sync.Pool so steady-state dynamic runs do
// not allocate. A provider from NewStaticProvider has no schedule and
// serves its one snapshot every round.
type Provider struct {
	schedule dynamic.Schedule // nil: serve cur every round
	kind     model.Kind
	desc     *model.Descriptor // nil when kind is unregistered; Round then errors
	n        int

	cur    *Snapshot
	curFor *graph.Graph

	pool sync.Pool

	builds     int64
	buildNanos int64
}

// NewProvider wraps schedule for the given communication model, resolving
// its registered descriptor once for the provider's lifetime. An
// unregistered kind is not rejected here (NewProvider predates validation
// in some callers); Round reports it on first use.
func NewProvider(schedule dynamic.Schedule, kind model.Kind) *Provider {
	desc, _ := model.Lookup(kind)
	return &Provider{
		schedule: schedule,
		kind:     kind,
		desc:     desc,
		n:        schedule.N(),
		pool:     sync.Pool{New: func() any { return new(Snapshot) }},
	}
}

// NewStaticProvider returns a provider for a static network given as its
// validated CSR (BuildSnapshot): Round serves snap every round with no
// validation, no build and no pool traffic, so Stats().Builds stays 0.
// The caller owns snap and must keep it alive (a topology-cache entry
// pinned) for as long as the provider runs.
func NewStaticProvider(snap *Snapshot) *Provider {
	return &Provider{cur: snap, n: snap.N()}
}

// N returns the agent count of the network.
func (p *Provider) N() int { return p.n }

// Round returns the validated snapshot of round t's communication graph.
// The snapshot stays valid until the next Round call with a different
// graph, at which point its arrays may be recycled.
func (p *Provider) Round(t int) (*Snapshot, error) {
	if p.schedule == nil {
		return p.cur, nil
	}
	if p.desc == nil {
		return nil, fmt.Errorf("topology: unknown model kind %d (registered models: %s)", int(p.kind), model.NamesList())
	}
	g := p.schedule.At(t)
	if g == nil {
		return nil, fmt.Errorf("topology: schedule returned nil graph for round %d", t)
	}
	if g == p.curFor {
		return p.cur, nil
	}
	if g.N() != p.n {
		return nil, fmt.Errorf("topology: round %d graph has %d vertices, want %d", t, g.N(), p.n)
	}
	snap := p.pool.Get().(*Snapshot)
	start := time.Now()
	snap.build(p.n, g.Arcs(), p.desc)
	if err := snap.validate(p.desc, t); err != nil {
		p.pool.Put(snap)
		return nil, err
	}
	p.buildNanos += time.Since(start).Nanoseconds()
	p.builds++
	if p.cur != nil {
		p.pool.Put(p.cur)
	}
	p.cur, p.curFor = snap, g
	return snap, nil
}

// Stats reports how many builds this provider has performed and the time
// spent building.
func (p *Provider) Stats() BuildStats {
	return BuildStats{Builds: p.builds, BuildNanos: p.buildNanos}
}
