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

// build flattens the round graph on n vertices given by arcs (edge i is
// arcs[i]) destination-major for the model described by desc. Two stable
// counting sorts order the arcs by (source, insertion index) and then
// bucket them per destination, reproducing exactly the order in which the
// reference engine appends to each inbox. Every arc must lie in [0, n).
func (s *Snapshot) build(n int, arcs []graph.Edge, desc *model.Descriptor) {
	m := len(arcs)
	s.n, s.m = n, m
	s.Start = grow(s.Start, n+1)
	s.Src = grow(s.Src, m)
	s.Slot = grow(s.Slot, m)
	s.Port = grow(s.Port, m)
	s.Outdeg = grow(s.Outdeg, n)
	s.srcStart = grow(s.srcStart, n+1)
	s.bykey = grow(s.bykey, m)
	s.fill = grow(s.fill, n)

	// Pass 1: order arc indices by (From, index) — stable counting sort.
	for i := 0; i < n; i++ {
		s.srcStart[i] = 0
	}
	s.srcStart[n] = 0
	for _, a := range arcs {
		s.srcStart[a.From+1]++
	}
	for i := 0; i < n; i++ {
		s.srcStart[i+1] += s.srcStart[i]
		s.Outdeg[i] = s.srcStart[i+1] - s.srcStart[i]
		s.fill[i] = 0
	}
	for e, a := range arcs {
		s.bykey[s.srcStart[a.From]+s.fill[a.From]] = int32(e)
		s.fill[a.From]++
	}

	// Pass 2: bucket the source-ordered arcs per destination.
	for j := 0; j < n; j++ {
		s.Start[j] = 0
		s.fill[j] = 0
	}
	s.Start[n] = 0
	for _, a := range arcs {
		s.Start[a.To+1]++
	}
	for j := 0; j < n; j++ {
		s.Start[j+1] += s.Start[j]
	}
	for _, ei := range s.bykey[:m] {
		a := arcs[ei]
		pos := s.Start[a.To] + s.fill[a.To]
		s.fill[a.To]++
		s.Src[pos] = int32(a.From)
		s.Port[pos] = int32(a.Port)
		if desc.PortSlots {
			s.Slot[pos] = int32(a.Port - 1)
		} else {
			s.Slot[pos] = 0
		}
	}
}

// validate checks, on the CSR just built and its source-ordered scratch,
// the invariants a round graph must satisfy (§2.1), in this order: every
// vertex carries a self-loop, and the model's registered graph-class
// constraints hold (symmetric ⇒ bidirectional edge relation, port-aware ⇒
// valid port labelling). It is the one validator: BuildSnapshot runs it
// for the cache and Provider.Round for every round graph. Strong
// connectivity is not checked: legitimate dynamic schedules (split rings,
// pairwise interactions) have rounds that are only connected over time,
// the regime Theorem 4.1 speaks to. It allocates nothing.
func (s *Snapshot) validate(desc *model.Descriptor, t int) error {
	for j := 0; j < s.n; j++ {
		if !s.hasArc(j, j) {
			return fmt.Errorf("topology: round %d graph lacks self-loops (§2.1 requires them)", t)
		}
	}
	if desc.RequireSymmetric && !s.symmetric() {
		return fmt.Errorf("topology: round %d graph is not symmetric but the model is %s", t, desc.Name)
	}
	if desc.RequirePorts && !s.portsValid() {
		return fmt.Errorf("topology: round %d graph has no valid port labelling (use Graph.AssignPorts)", t)
	}
	return nil
}

// hasArc reports whether an i→j arc exists: a binary search for source i
// among destination j's entries, which are sorted by source.
func (s *Snapshot) hasArc(i, j int) bool {
	lo, hi := s.Start[j], s.Start[j+1]
	for lo < hi {
		mid := lo + (hi-lo)/2
		if int(s.Src[mid]) < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < s.Start[j+1] && int(s.Src[lo]) == i
}

// symmetric reports whether every arc i→j with i ≠ j has a j→i arc
// (multiplicities need not match).
func (s *Snapshot) symmetric() bool {
	for j := 0; j < s.n; j++ {
		for k := s.Start[j]; k < s.Start[j+1]; k++ {
			i := int(s.Src[k])
			if i == j || (k > s.Start[j] && s.Src[k-1] == s.Src[k]) {
				continue
			}
			if !s.hasArc(j, i) {
				return false
			}
		}
	}
	return true
}

// portsValid reports whether every source's arcs carry the ports 1..d⁻
// exactly once each. Port p of source i claims slot srcStart[i]+p−1 of
// the source-ordered scratch, which the finished build no longer needs:
// a port out of range, or one claimed twice, is not a labelling.
func (s *Snapshot) portsValid() bool {
	claimed := s.bykey[:s.m]
	clear(claimed)
	for k, i := range s.Src[:s.m] {
		p := s.Port[k]
		if p < 1 || p > s.Outdeg[i] {
			return false
		}
		at := s.srcStart[i] + p - 1
		if claimed[at] != 0 {
			return false
		}
		claimed[at] = 1
	}
	return true
}
