package graph

// Builders for the network families used as workloads by the experiment
// harness. Every builder includes the self-loop at each vertex that the
// paper's communication graphs assume (§2.1), except where noted.
//
// Each static family is written once, as its arc list (RingArcs, …,
// DeBruijnArcs); its *Graph constructor is FromArcs over that list, and a
// consumer that needs only the CSR (topology.BuildSnapshot) takes the list
// itself, so no graph is made.

import (
	"fmt"
	"math"
	"math/rand"
)

// Ring returns the unidirectional ring R_n: i → (i+1) mod n, plus
// self-loops. Rings are the impossibility workhorses of §4.1.
func Ring(n int) *Graph { return FromArcs(n, RingArcs(n)) }

// RingArcs returns Ring(n)'s arcs in insertion order.
func RingArcs(n int) []Edge {
	arcs := make([]Edge, 0, 2*n)
	for i := 0; i < n; i++ {
		arcs = append(arcs, Edge{From: i, To: i}, Edge{From: i, To: (i + 1) % n})
	}
	return arcs
}

// BidirectionalRing returns the bidirectional ring of §4.1: edges both ways
// around the cycle, plus self-loops.
func BidirectionalRing(n int) *Graph { return FromArcs(n, BidirectionalRingArcs(n)) }

// BidirectionalRingArcs returns BidirectionalRing(n)'s arcs in insertion
// order.
func BidirectionalRingArcs(n int) []Edge {
	arcs := make([]Edge, 0, 3*n)
	for i := 0; i < n; i++ {
		arcs = append(arcs, Edge{From: i, To: i})
		if n > 1 {
			arcs = append(arcs, Edge{From: i, To: (i + 1) % n})
			if n > 2 {
				arcs = append(arcs, Edge{From: i, To: (i + n - 1) % n})
			}
		}
	}
	return arcs
}

// Complete returns the complete graph with self-loops.
func Complete(n int) *Graph { return FromArcs(n, CompleteArcs(n)) }

// CompleteArcs returns Complete(n)'s arcs in insertion order.
func CompleteArcs(n int) []Edge {
	arcs := make([]Edge, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			arcs = append(arcs, Edge{From: i, To: j})
		}
	}
	return arcs
}

// Path returns the bidirectional path 0—1—…—(n-1) with self-loops.
func Path(n int) *Graph { return FromArcs(n, PathArcs(n)) }

// PathArcs returns Path(n)'s arcs in insertion order.
func PathArcs(n int) []Edge {
	arcs := make([]Edge, 0, 3*n)
	for i := 0; i < n; i++ {
		arcs = append(arcs, Edge{From: i, To: i})
		if i+1 < n {
			arcs = append(arcs, Edge{From: i, To: i + 1}, Edge{From: i + 1, To: i})
		}
	}
	return arcs
}

// Star returns the bidirectional star with center 0 and n-1 leaves, with
// self-loops. All leaves lie in a single fibre of the minimum base.
func Star(n int) *Graph { return FromArcs(n, StarArcs(n)) }

// StarArcs returns Star(n)'s arcs in insertion order.
func StarArcs(n int) []Edge {
	arcs := make([]Edge, 0, 3*n)
	for i := 0; i < n; i++ {
		arcs = append(arcs, Edge{From: i, To: i})
	}
	for i := 1; i < n; i++ {
		arcs = append(arcs, Edge{From: 0, To: i}, Edge{From: i, To: 0})
	}
	return arcs
}

// Hypercube returns the d-dimensional bidirectional hypercube on 2^d
// vertices with self-loops. Its minimum base is a single vertex, making it
// a maximally symmetric workload.
func Hypercube(d int) *Graph {
	arcs := HypercubeArcs(d)
	return FromArcs(1<<d, arcs)
}

// HypercubeArcs returns Hypercube(d)'s arcs in insertion order.
func HypercubeArcs(d int) []Edge {
	if d < 0 || d > 20 {
		panic(fmt.Sprintf("graph: Hypercube(%d): dimension out of range [0, 20]", d))
	}
	n := 1 << d
	arcs := make([]Edge, 0, n*(d+1))
	for v := 0; v < n; v++ {
		arcs = append(arcs, Edge{From: v, To: v})
		for b := 0; b < d; b++ {
			arcs = append(arcs, Edge{From: v, To: v ^ (1 << b)})
		}
	}
	return arcs
}

// Torus returns the rows×cols bidirectional torus grid with self-loops.
func Torus(rows, cols int) *Graph {
	arcs := TorusArcs(rows, cols)
	return FromArcs(rows*cols, arcs)
}

// TorusArcs returns Torus(rows, cols)'s arcs in insertion order. A
// neighbour that wraps onto the vertex itself or onto one already linked
// (a dimension of size 1 or 2) is skipped; that check reads only the arcs
// just emitted for the vertex, since each vertex's arcs are contiguous.
func TorusArcs(rows, cols int) []Edge {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("graph: Torus(%d, %d): dimensions must be positive", rows, cols))
	}
	n := rows * cols
	arcs := make([]Edge, 0, 5*n)
	id := func(r, c int) int { return ((r+rows)%rows)*cols + (c+cols)%cols }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := id(r, c)
			own := len(arcs)
			arcs = append(arcs, Edge{From: v, To: v})
			for _, w := range [4]int{id(r+1, c), id(r-1, c), id(r, c+1), id(r, c-1)} {
				if !hasArc(arcs[own:], v, w) {
					arcs = append(arcs, Edge{From: v, To: w})
				}
			}
		}
	}
	return arcs
}

// DeBruijn returns the de Bruijn graph B(k, d) on k^d vertices: vertex v
// (a base-k word of length d) has an edge to every (v·k + c) mod k^d.
// Self-loops occur naturally at the constant words; missing ones are added.
// De Bruijn graphs are classic fibration examples: B(k, d+1) fibres over
// B(k, d).
func DeBruijn(k, d int) *Graph {
	arcs := DeBruijnArcs(k, d)
	return FromArcs(deBruijnOrder(k, d), arcs)
}

// DeBruijnArcs returns DeBruijn(k, d)'s arcs in insertion order: every
// vertex's k shift arcs, then a self-loop for each vertex, in vertex
// order, whose own arcs lack one — where EnsureSelfLoops puts them.
func DeBruijnArcs(k, d int) []Edge {
	if k < 1 || d < 0 {
		panic(fmt.Sprintf("graph: DeBruijn(%d, %d): need k ≥ 1, d ≥ 0", k, d))
	}
	n := deBruijnOrder(k, d)
	arcs := make([]Edge, 0, n*k+n)
	for v := 0; v < n; v++ {
		for c := 0; c < k; c++ {
			arcs = append(arcs, Edge{From: v, To: (v*k + c) % n})
		}
	}
	for v := 0; v < n; v++ {
		if !hasArc(arcs[v*k:(v+1)*k], v, v) {
			arcs = append(arcs, Edge{From: v, To: v})
		}
	}
	return arcs
}

// deBruijnOrder returns k^d, the vertex count of B(k, d).
func deBruijnOrder(k, d int) int {
	n := 1
	for i := 0; i < d; i++ {
		n *= k
	}
	return n
}

// hasArc reports whether arcs holds a u→v arc.
func hasArc(arcs []Edge, u, v int) bool {
	for _, e := range arcs {
		if e.From == u && e.To == v {
			return true
		}
	}
	return false
}

// RandomStronglyConnected returns a random strongly connected digraph with
// self-loops: a random Hamiltonian cycle plus extra random arcs.
func RandomStronglyConnected(n, extraEdges int, rng *rand.Rand) *Graph {
	g := New(n)
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, i)
		g.AddEdge(perm[i], perm[(i+1)%n])
	}
	for e := 0; e < extraEdges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g
}

// RandomSymmetricConnected returns a random connected bidirectional graph
// with self-loops: a random spanning tree plus extra random bidirectional
// edges.
func RandomSymmetricConnected(n, extraEdges int, rng *rand.Rand) *Graph {
	g := New(n)
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, i)
	}
	for i := 1; i < n; i++ {
		u, v := perm[i], perm[rng.Intn(i)]
		g.AddEdge(u, v)
		g.AddEdge(v, u)
	}
	for e := 0; e < extraEdges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
			g.AddEdge(v, u)
		}
	}
	return g
}

// RandomGeometric returns a random geometric graph: n points uniform in the
// unit square, bidirectional edges between points within the given radius,
// self-loops everywhere. If the result is disconnected it is repaired by
// linking nearest points of distinct components, modelling the sensor
// networks that motivate the paper's introduction.
func RandomGeometric(n int, radius float64, rng *rand.Rand) *Graph {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, i)
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if math.Hypot(dx, dy) <= radius {
				g.AddEdge(i, j)
				g.AddEdge(j, i)
			}
		}
	}
	// Repair connectivity: repeatedly link the globally nearest pair of
	// vertices lying in different components.
	for {
		comps := g.SCCs()
		if len(comps) == 1 {
			return g
		}
		compOf := make([]int, n)
		for ci, comp := range comps {
			for _, v := range comp {
				compOf[v] = ci
			}
		}
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if compOf[i] == compOf[j] {
					continue
				}
				d := math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
				if d < best {
					bi, bj, best = i, j, d
				}
			}
		}
		g.AddEdge(bi, bj)
		g.AddEdge(bj, bi)
	}
}

// Multigraph builds a multigraph from an edge multiplicity matrix:
// counts[i][j] parallel edges i→j. Used to construct minimum bases directly
// in tests.
func Multigraph(counts [][]int) *Graph {
	n := len(counts)
	g := New(n)
	for i := 0; i < n; i++ {
		if len(counts[i]) != n {
			panic(fmt.Sprintf("graph: Multigraph: row %d has %d entries, want %d", i, len(counts[i]), n))
		}
		for j := 0; j < n; j++ {
			for c := 0; c < counts[i][j]; c++ {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}
