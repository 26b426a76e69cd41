// Package topology is the shared communication substrate under the four
// round engines: it turns the per-round graphs of a dynamic.Schedule into
// immutable, flat, destination-major CSR snapshots with the §2.1
// invariants checked at build time, and caches them so static networks pay
// the build and the validation exactly once. A static network may also be
// handed over as its snapshot alone (NewStaticProvider), which is how a
// run takes its network from the process-wide Cache: no graph takes part.
//
// The paper's results hold uniformly across the four communication models
// because the round structure — snapshot the graph, deliver multisets,
// step every agent — is the same everywhere; only the sending function
// varies. This package is that round structure's graph half, factored out
// so every engine consumes one substrate instead of reimplementing
// adjacency handling. The delivery-order invariant lives here, in one
// place: within a destination, CSR entries follow the reference engine's
// inbox fill order (sources ascending, edges in insertion order), which is
// what makes the four engines' traces byte-identical by construction.
package topology

import (
	"fmt"

	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// Snapshot is one round's communication graph flattened destination-major:
// the deliveries into agent j occupy entries Start[j]..Start[j+1], each
// naming the source agent and the index into the source's sent buffer
// (port−1 under output port awareness, 0 otherwise). Within a destination,
// entries are ordered by (source ascending, edge insertion order) — the
// delivery-order invariant all engines inherit.
//
// A Snapshot is immutable once handed out by a Provider; engines may read
// the flat arrays concurrently without synchronization. The backing arrays
// are recycled through the Provider's pool when the schedule moves on, so
// holders must not retain a Snapshot across rounds.
type Snapshot struct {
	// Start has n+1 entries: Start[j]..Start[j+1] delimit destination j's
	// incoming entries in Src/Slot/Port.
	Start []int32
	// Src[e] is the source agent of entry e.
	Src []int32
	// Slot[e] indexes the source's sent buffer (port−1 under the
	// output-port model, 0 otherwise).
	Slot []int32
	// Port[e] is the original port label, for error messages.
	Port []int32
	// Outdeg[i] is agent i's outdegree (the d⁻ its sending function may
	// observe under outdegree awareness).
	Outdeg []int32

	n, m int

	// scratch for the counting sorts in build, recycled with the snapshot.
	srcStart []int32
	bykey    []int32
	fill     []int32
}

// N returns the number of agents.
func (s *Snapshot) N() int { return s.n }

// M returns the number of edges (with multiplicity).
func (s *Snapshot) M() int { return s.m }

// OutDegree returns agent i's outdegree, self-loop and parallel edges
// included.
func (s *Snapshot) OutDegree(i int) int { return int(s.Outdeg[i]) }

// InDegree returns the number of entries delivered into agent j.
func (s *Snapshot) InDegree(j int) int { return int(s.Start[j+1] - s.Start[j]) }

// DstView is a shard's view of a Snapshot: the destination range [Lo, Hi)
// together with the snapshot it indexes into. Parallel executors hand each
// worker one view; because Snapshot is immutable and the ranges are
// disjoint, workers read their views concurrently without synchronization.
// The view carries no copies — Edges returns offsets into the snapshot's
// flat arrays, so slicing per destination costs nothing.
type DstView struct {
	// Snap is the underlying snapshot; its flat arrays are shared by all
	// views of a round.
	Snap *Snapshot
	// Lo and Hi delimit the half-open destination range this view owns.
	Lo, Hi int
}

// DstRange returns the view of destinations [lo, hi). It panics on an
// invalid range — shard arithmetic producing one is a programming error,
// not an input error.
func (s *Snapshot) DstRange(lo, hi int) DstView {
	if lo < 0 || hi < lo || hi > s.n {
		panic(fmt.Sprintf("topology: destination range [%d, %d) outside 0..%d", lo, hi, s.n))
	}
	return DstView{Snap: s, Lo: lo, Hi: hi}
}

// N returns the number of destinations in the view.
func (v DstView) N() int { return v.Hi - v.Lo }

// M returns the number of CSR entries delivered into the view's
// destinations: the per-shard share of the round's edges.
func (v DstView) M() int {
	if v.Hi == v.Lo {
		return 0
	}
	return int(v.Snap.Start[v.Hi] - v.Snap.Start[v.Lo])
}

// Edges returns the half-open entry range of destination j in the
// snapshot's Src/Slot/Port arrays. j must lie in [Lo, Hi).
func (v DstView) Edges(j int) (lo, hi int32) {
	if j < v.Lo || j >= v.Hi {
		panic(fmt.Sprintf("topology: destination %d outside view [%d, %d)", j, v.Lo, v.Hi))
	}
	return v.Snap.Start[j], v.Snap.Start[j+1]
}

// grow returns b resized to length n, reusing its backing array when the
// capacity allows.
func grow(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// build flattens g destination-major for the model described by desc. Two
// stable counting sorts order the edges by (source, insertion index) and
// then bucket them per destination, reproducing exactly the order in which
// the reference engine appends to each inbox.
func (s *Snapshot) build(g *graph.Graph, desc *model.Descriptor) {
	n, m := g.N(), g.M()
	s.n, s.m = n, m
	s.Start = grow(s.Start, n+1)
	s.Src = grow(s.Src, m)
	s.Slot = grow(s.Slot, m)
	s.Port = grow(s.Port, m)
	s.Outdeg = grow(s.Outdeg, n)
	s.srcStart = grow(s.srcStart, n+1)
	s.bykey = grow(s.bykey, m)
	s.fill = grow(s.fill, n)

	// Pass 1: order edge indices by (From, index) — stable counting sort.
	for i := 0; i < n; i++ {
		s.srcStart[i] = 0
	}
	s.srcStart[n] = 0
	for e := 0; e < m; e++ {
		s.srcStart[g.Edge(e).From+1]++
	}
	for i := 0; i < n; i++ {
		s.srcStart[i+1] += s.srcStart[i]
		s.Outdeg[i] = s.srcStart[i+1] - s.srcStart[i]
		s.fill[i] = 0
	}
	for e := 0; e < m; e++ {
		from := g.Edge(e).From
		s.bykey[s.srcStart[from]+s.fill[from]] = int32(e)
		s.fill[from]++
	}

	// Pass 2: bucket the source-ordered edges per destination.
	for j := 0; j < n; j++ {
		s.Start[j] = 0
		s.fill[j] = 0
	}
	s.Start[n] = 0
	for e := 0; e < m; e++ {
		s.Start[g.Edge(e).To+1]++
	}
	for j := 0; j < n; j++ {
		s.Start[j+1] += s.Start[j]
	}
	for _, ei := range s.bykey[:m] {
		e := g.Edge(int(ei))
		pos := s.Start[e.To] + s.fill[e.To]
		s.fill[e.To]++
		s.Src[pos] = int32(e.From)
		s.Port[pos] = int32(e.Port)
		if desc.PortSlots {
			s.Slot[pos] = int32(e.Port - 1)
		} else {
			s.Slot[pos] = 0
		}
	}
}

// validate checks the invariants a round graph must satisfy before it may
// be flattened: the agent count matches, every vertex carries a self-loop
// (§2.1's standing assumption), and the model's registered graph-class
// constraints hold (symmetric ⇒ bidirectional edge relation, port-aware ⇒
// valid port labelling). Strong connectivity is not checked: legitimate
// dynamic schedules (split rings, pairwise interactions) have rounds that
// are only connected over time, the regime Theorem 4.1 speaks to.
func validate(g *graph.Graph, desc *model.Descriptor, n, t int) error {
	if g.N() != n {
		return fmt.Errorf("topology: round %d graph has %d vertices, want %d", t, g.N(), n)
	}
	if !g.HasSelfLoops() {
		return fmt.Errorf("topology: round %d graph lacks self-loops (§2.1 requires them)", t)
	}
	if desc.RequireSymmetric && !g.IsSymmetric() {
		return fmt.Errorf("topology: round %d graph is not symmetric but the model is %s", t, desc.Name)
	}
	if desc.RequirePorts && !g.PortsValid() {
		return fmt.Errorf("topology: round %d graph has no valid port labelling (use Graph.AssignPorts)", t)
	}
	return nil
}
