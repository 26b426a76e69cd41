// Package graph implements the directed multigraphs underlying the computing
// model of the paper (§2.1, §3): finite vertex sets, parallel edges, optional
// output-port labels on edges, graph products, connectivity and diameter, and
// the builders used as workloads by the experiment harness.
//
// Vertices are the integers 0..N()-1 (the paper writes 1..n). Edges carry an
// optional Port label: port 0 means "unlabelled", ports 1..d are the local
// output labelling of the output-port-awareness model (§2.2).
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Edge is a directed edge of a multigraph, optionally labelled with the
// output port it leaves its source on (0 = unlabelled).
type Edge struct {
	From, To int
	Port     int
}

// Graph is a directed multigraph on vertices 0..n-1. The zero value is the
// empty graph on zero vertices; use New to create a graph with vertices.
//
// Graph is cheap to query and append-only: edges can be added but not
// removed, which keeps the adjacency indices trivially consistent.
type Graph struct {
	n     int
	edges []Edge
	out   [][]int // out[v] = indices into edges with From == v
	in    [][]int // in[v]  = indices into edges with To == v
}

// New returns an edgeless graph on n vertices. n must be positive.
func New(n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("graph: New(%d): vertex count must be positive", n))
	}
	return &Graph{
		n:   n,
		out: make([][]int, n),
		in:  make([][]int, n),
	}
}

// FromArcs returns the graph on n vertices whose edges are arcs, in order:
// edge i is arcs[i]. n must be positive and every arc must lie in [0, n).
func FromArcs(n int, arcs []Edge) *Graph {
	g := New(n)
	g.edges = make([]Edge, 0, len(arcs))
	for _, e := range arcs {
		g.AddPortEdge(e.From, e.To, e.Port)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges (with multiplicity).
func (g *Graph) M() int { return len(g.edges) }

// AddEdge appends an unlabelled edge from u to v. Parallel edges are
// allowed. It panics on out-of-range vertices, mirroring slice indexing.
func (g *Graph) AddEdge(u, v int) { g.AddPortEdge(u, v, 0) }

// AddPortEdge appends an edge from u to v carried on the given output port
// of u (0 = unlabelled).
func (g *Graph) AddPortEdge(u, v, port int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: AddPortEdge(%d, %d): vertex out of range [0, %d)", u, v, g.n))
	}
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{From: u, To: v, Port: port})
	g.out[u] = append(g.out[u], idx)
	g.in[v] = append(g.in[v], idx)
}

// Edge returns the i-th edge.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Arcs returns the edge list itself, in insertion order, for consumers
// that only read it (a CSR build); callers must not modify it.
func (g *Graph) Arcs() []Edge { return g.edges }

// OutDegree returns the number of edges leaving v, counting the self-loop
// and parallel edges. This is the d⁻ of the paper's outdegree-awareness
// model.
func (g *Graph) OutDegree(v int) int { return len(g.out[v]) }

// InDegree returns the number of edges entering v, with multiplicity.
func (g *Graph) InDegree(v int) int { return len(g.in[v]) }

// OutEdges returns the indices of edges leaving v in insertion order.
func (g *Graph) OutEdges(v int) []int {
	out := make([]int, len(g.out[v]))
	copy(out, g.out[v])
	return out
}

// InEdges returns the indices of edges entering v in insertion order.
func (g *Graph) InEdges(v int) []int {
	in := make([]int, len(g.in[v]))
	copy(in, g.in[v])
	return in
}

// OutNeighbors returns the distinct targets of edges leaving v, sorted.
func (g *Graph) OutNeighbors(v int) []int {
	return g.distinct(g.out[v], func(e Edge) int { return e.To })
}

// InNeighbors returns the distinct sources of edges entering v, sorted.
func (g *Graph) InNeighbors(v int) []int {
	return g.distinct(g.in[v], func(e Edge) int { return e.From })
}

func (g *Graph) distinct(idx []int, pick func(Edge) int) []int {
	seen := make(map[int]bool, len(idx))
	var out []int
	for _, i := range idx {
		w := pick(g.edges[i])
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

// HasEdge reports whether at least one u→v edge exists.
func (g *Graph) HasEdge(u, v int) bool {
	for _, i := range g.out[u] {
		if g.edges[i].To == v {
			return true
		}
	}
	return false
}

// EdgeCount returns the number of parallel u→v edges (the d_{u,v} of §4.2).
func (g *Graph) EdgeCount(u, v int) int {
	c := 0
	for _, i := range g.out[u] {
		if g.edges[i].To == v {
			c++
		}
	}
	return c
}

// HasSelfLoops reports whether every vertex has at least one self-loop, the
// standing assumption of the paper's communication graphs (§2.1).
func (g *Graph) HasSelfLoops() bool {
	for v := 0; v < g.n; v++ {
		if !g.HasEdge(v, v) {
			return false
		}
	}
	return true
}

// EnsureSelfLoops returns a graph identical to g with a self-loop added at
// every vertex lacking one. If g already has all self-loops, g itself is
// returned.
func (g *Graph) EnsureSelfLoops() *Graph {
	if g.HasSelfLoops() {
		return g
	}
	h := g.Clone()
	for v := 0; v < h.n; v++ {
		if !h.HasEdge(v, v) {
			h.AddEdge(v, v)
		}
	}
	return h
}

// Clone returns an independent copy of g.
func (g *Graph) Clone() *Graph { return FromArcs(g.n, g.edges) }

// IsSymmetric reports whether the edge relation is bidirectional ignoring
// self-loops: u→v exists iff v→u exists (§2.1's class of symmetric
// networks). Multiplicities are not required to match; symmetry of the
// communication relation is what the symmetric-communications model assumes.
func (g *Graph) IsSymmetric() bool {
	for _, e := range g.edges {
		if e.From != e.To && !g.HasEdge(e.To, e.From) {
			return false
		}
	}
	return true
}

// Symmetrized returns a simple-edged graph containing, for every u→v edge of
// g, both u→v and v→u.
func (g *Graph) Symmetrized() *Graph {
	h := New(g.n)
	type pair struct{ u, v int }
	seen := make(map[pair]bool)
	add := func(u, v int) {
		if !seen[pair{u, v}] {
			seen[pair{u, v}] = true
			h.AddEdge(u, v)
		}
	}
	for _, e := range g.edges {
		add(e.From, e.To)
		add(e.To, e.From)
	}
	return h
}

// AssignPorts returns a copy of g in which the outgoing edges of each vertex
// are labelled with ports 1..d⁻ in insertion order, realizing the local
// output labelling of the output-port-awareness model. Existing port labels
// are overwritten.
func (g *Graph) AssignPorts() *Graph { return FromArcs(g.n, NumberPorts(g.n, g.Edges())) }

// NumberPorts labels arcs, in place, the way AssignPorts labels a graph's
// edges: each source's arcs get ports 1..d⁻ in arc order. It returns arcs.
func NumberPorts(n int, arcs []Edge) []Edge {
	next := make([]int, n)
	for i := range arcs {
		next[arcs[i].From]++
		arcs[i].Port = next[arcs[i].From]
	}
	return arcs
}

// PortsValid reports whether every vertex's outgoing edges carry the ports
// 1..d⁻ exactly once each.
func (g *Graph) PortsValid() bool {
	for v := 0; v < g.n; v++ {
		seen := make(map[int]bool, len(g.out[v]))
		for _, i := range g.out[v] {
			p := g.edges[i].Port
			if p < 1 || p > len(g.out[v]) || seen[p] {
				return false
			}
			seen[p] = true
		}
	}
	return true
}

// Product returns the graph product G1 ∘ G2 of §2.1 (footnote 3): an edge
// u→w exists in the product iff there is k with u→k in g1 and k→w in g2.
// Both graphs must have the same vertex count. The product is a simple
// graph (multiplicities collapsed), matching the paper's use for dynamic
// paths.
func Product(g1, g2 *Graph) *Graph {
	if g1.n != g2.n {
		panic(fmt.Sprintf("graph: Product: vertex counts differ (%d vs %d)", g1.n, g2.n))
	}
	p := New(g1.n)
	for u := 0; u < g1.n; u++ {
		reach := make(map[int]bool)
		for _, i := range g1.out[u] {
			k := g1.edges[i].To
			for _, j := range g2.out[k] {
				reach[g2.edges[j].To] = true
			}
		}
		targets := make([]int, 0, len(reach))
		for w := range reach {
			targets = append(targets, w)
		}
		sort.Ints(targets)
		for _, w := range targets {
			p.AddEdge(u, w)
		}
	}
	return p
}

// IsComplete reports whether every ordered pair (u, w), including u == w,
// is connected by at least one edge.
func (g *Graph) IsComplete() bool {
	for u := 0; u < g.n; u++ {
		reach := make(map[int]bool, g.n)
		for _, i := range g.out[u] {
			reach[g.edges[i].To] = true
		}
		if len(reach) != g.n {
			return false
		}
	}
	return true
}

// String renders a compact description, for test failure messages.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph(n=%d, m=%d;", g.n, len(g.edges))
	es := g.Edges()
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		if es[i].To != es[j].To {
			return es[i].To < es[j].To
		}
		return es[i].Port < es[j].Port
	})
	for _, e := range es {
		if e.Port != 0 {
			fmt.Fprintf(&b, " %d-%d>%d", e.From, e.Port, e.To)
		} else {
			fmt.Fprintf(&b, " %d>%d", e.From, e.To)
		}
	}
	b.WriteByte(')')
	return b.String()
}
