// Package dynamic implements dynamic graphs — infinite sequences
// 𝔾 = (𝔾(t))_{t≥1} of communication graphs on a fixed vertex set (§2.1) —
// together with the adversaries (network classes) used by the Section 5
// experiments and the dynamic-diameter machinery.
package dynamic

import (
	"fmt"
	"math/rand"

	"anonnet/internal/graph"
)

// Schedule is a dynamic graph: At(t) is the communication graph of round t
// (t ≥ 1). Implementations must return graphs on exactly N() vertices, with
// a self-loop at every vertex (§2.1). Schedules must be deterministic: At
// must return equal graphs when called twice with the same t, so that every
// engine observes the same network.
type Schedule interface {
	N() int
	At(t int) *graph.Graph
}

// Static wraps a fixed graph as a constant schedule. The graph is stored
// with self-loops ensured.
type Static struct {
	g *graph.Graph
}

// NewStatic returns the constant schedule equal to g at every round.
func NewStatic(g *graph.Graph) *Static { return &Static{g: g.EnsureSelfLoops()} }

// N returns the vertex count.
func (s *Static) N() int { return s.g.N() }

// At returns the underlying graph regardless of t.
func (s *Static) At(int) *graph.Graph { return s.g }

// Periodic cycles through a fixed list of graphs: round t uses
// graphs[(t-1) mod len].
type Periodic struct {
	graphs []*graph.Graph
	n      int
}

// NewPeriodic returns a periodic schedule over the given non-empty list of
// same-size graphs.
func NewPeriodic(graphs ...*graph.Graph) (*Periodic, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("dynamic: NewPeriodic: need at least one graph")
	}
	n := graphs[0].N()
	withLoops := make([]*graph.Graph, len(graphs))
	for i, g := range graphs {
		if g.N() != n {
			return nil, fmt.Errorf("dynamic: NewPeriodic: graph %d has %d vertices, want %d", i, g.N(), n)
		}
		withLoops[i] = g.EnsureSelfLoops()
	}
	return &Periodic{graphs: withLoops, n: n}, nil
}

// N returns the vertex count.
func (p *Periodic) N() int { return p.n }

// At returns the graph for round t.
func (p *Periodic) At(t int) *graph.Graph {
	if t < 1 {
		t = 1
	}
	return p.graphs[(t-1)%len(p.graphs)]
}

// Func adapts a function to a Schedule; the function must be deterministic
// in t.
type Func struct {
	Vertices int
	Fn       func(t int) *graph.Graph
}

// N returns the vertex count.
func (f *Func) N() int { return f.Vertices }

// At returns Fn(t) with self-loops ensured.
func (f *Func) At(t int) *graph.Graph { return f.Fn(t).EnsureSelfLoops() }

// RandomConnected is a schedule that draws, for each round, an independent
// random connected bidirectional graph (a fresh spanning tree plus extra
// edges). Rounds are derandomized by seeding a fresh generator with
// seed ⊕ t, making At deterministic in t, as Schedule requires. Because
// every round is connected and has self-loops, information reaches at least
// one new vertex per round, so the dynamic diameter is at most n-1.
type RandomConnected struct {
	Vertices   int
	ExtraEdges int
	Seed       int64
}

// N returns the vertex count.
func (r *RandomConnected) N() int { return r.Vertices }

// At returns the round-t random connected symmetric graph.
func (r *RandomConnected) At(t int) *graph.Graph {
	rng := rand.New(rand.NewSource(mixSeed(r.Seed, t)))
	return graph.RandomSymmetricConnected(r.Vertices, r.ExtraEdges, rng)
}

// Pairwise is a population-protocol-like schedule: each round, a random
// perfect-as-possible matching of the vertices communicates bidirectionally;
// everyone else only has its self-loop (footnote 2 of the paper: pairwise
// interactions are symmetric dynamic graphs of degree ≤ 1).
type Pairwise struct {
	Vertices int
	Seed     int64
}

// N returns the vertex count.
func (p *Pairwise) N() int { return p.Vertices }

// At returns the round-t random matching graph.
func (p *Pairwise) At(t int) *graph.Graph {
	rng := rand.New(rand.NewSource(mixSeed(p.Seed, t)))
	g := graph.New(p.Vertices)
	perm := rng.Perm(p.Vertices)
	for i := 0; i < p.Vertices; i++ {
		g.AddEdge(i, i)
	}
	for i := 0; i+1 < p.Vertices; i += 2 {
		u, v := perm[i], perm[i+1]
		g.AddEdge(u, v)
		g.AddEdge(v, u)
	}
	return g
}

// SplitRing alternates between the two halves of a bidirectional ring and
// the two "bridge" edges, producing a schedule where no single round is
// connected yet the dynamic diameter is finite — the situation the paper
// notes for D ≥ 2 (§2.1).
type SplitRing struct {
	Vertices int
}

// N returns the vertex count.
func (s *SplitRing) N() int { return s.Vertices }

// At returns the round-t graph: odd rounds carry the two half-ring paths,
// even rounds carry only the two bridges joining the halves.
func (s *SplitRing) At(t int) *graph.Graph {
	n := s.Vertices
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, i)
	}
	half := n / 2
	bi := func(u, v int) {
		g.AddEdge(u, v)
		g.AddEdge(v, u)
	}
	if t%2 == 1 {
		for i := 0; i+1 < half; i++ {
			bi(i, i+1)
		}
		for i := half; i+1 < n; i++ {
			bi(i, i+1)
		}
	} else if n > 1 {
		bi(0, n-1)
		if half > 0 && half < n {
			bi(half-1, half)
		}
	}
	return g
}

// DynamicDiameter returns the dynamic diameter of the schedule as observed
// on rounds [from, from+horizon): the smallest D such that every window of D
// consecutive graphs starting in that range has a complete product
// (§2.1). It returns -1 if no D ≤ horizon works on the sampled window. For
// genuinely random schedules this is an empirical estimate.
func DynamicDiameter(s Schedule, from, horizon int) int {
	if from < 1 {
		from = 1
	}
	for d := 1; d <= horizon; d++ {
		if windowAlwaysComplete(s, from, horizon, d) {
			return d
		}
	}
	return -1
}

func windowAlwaysComplete(s Schedule, from, horizon, d int) bool {
	for t := from; t+d-1 < from+horizon; t++ {
		prod := s.At(t)
		for k := 1; k < d; k++ {
			prod = graph.Product(prod, s.At(t+k))
		}
		if !prod.IsComplete() {
			return false
		}
	}
	return true
}

// mixSeed derives a per-round RNG seed from a schedule seed and the round
// number, decorrelating consecutive rounds.
func mixSeed(seed int64, t int) int64 {
	return seed ^ (int64(t)+1)*0x5deece66d ^ int64(t)<<32
}

// GrowingGaps is the §6 (concluding remarks) connectivity regime: the
// network is never permanently split — the base schedule's graphs recur
// forever — but there is NO finite dynamic diameter, because the quiet
// stretches between communication rounds grow without bound. Communication
// happens exactly at rounds T_k = k·(k+1)/2 (gaps 1, 2, 3, …), using the
// base schedule's k-th graph; every other round has self-loops only.
//
// The paper asks which computability results survive here: Moreau's
// theorem covers the Metropolis family, while the Push-Sum analysis of
// Theorem 5.2 does not apply. The harness explores both empirically.
type GrowingGaps struct {
	Base Schedule
}

// N returns the vertex count.
func (g *GrowingGaps) N() int { return g.Base.N() }

// At returns the base's k-th graph at the k-th triangular number, and the
// self-loops-only graph otherwise.
func (g *GrowingGaps) At(t int) *graph.Graph {
	// Invert t = k(k+1)/2: k = (√(8t+1)−1)/2 when integral.
	k := int((sqrtInt(8*int64(t)+1) - 1) / 2)
	if k*(k+1)/2 == t && k >= 1 {
		return g.Base.At(k)
	}
	loops := graph.New(g.Base.N())
	for v := 0; v < g.Base.N(); v++ {
		loops.AddEdge(v, v)
	}
	return loops
}

// sqrtInt is the integer square root.
func sqrtInt(x int64) int64 {
	if x < 0 {
		return 0
	}
	r := int64(0)
	for bit := int64(1) << 31; bit > 0; bit >>= 1 {
		if (r+bit)*(r+bit) <= x {
			r += bit
		}
	}
	return r
}

// EdgeMarkov is the classical Markovian evolving-graph adversary: each
// potential bidirectional edge of the template flips between present and
// absent with per-round birth probability POn and death probability POff
// (derandomized per round from Seed, so At is deterministic in t, as
// Schedule requires). With POn > 0 the union over any long-enough window is
// the template, giving a finite dynamic diameter with high probability —
// the harness estimates it with DynamicDiameter.
type EdgeMarkov struct {
	// Template is the static symmetric graph whose edges blink.
	Template *graph.Graph
	// POn is the probability an absent edge appears this round.
	POn float64
	// POff is the probability a present edge disappears this round.
	POff float64
	// Seed derandomizes the evolution.
	Seed int64
}

// N returns the vertex count.
func (m *EdgeMarkov) N() int { return m.Template.N() }

// At returns the round-t graph. The Markov chain is replayed from round 1
// on each call (O(t) per call), keeping At deterministic; schedules are
// typically consumed forward, and the engine calls At once per round.
func (m *EdgeMarkov) At(t int) *graph.Graph {
	type pair struct{ u, v int }
	state := make(map[pair]bool)
	var edges []pair
	for _, e := range m.Template.Edges() {
		if e.From < e.To {
			p := pair{e.From, e.To}
			state[p] = true // start fully connected
			edges = append(edges, p)
		}
	}
	for round := 2; round <= t; round++ {
		rng := rand.New(rand.NewSource(mixSeed(m.Seed, round)))
		for _, p := range edges {
			if state[p] {
				state[p] = rng.Float64() >= m.POff
			} else {
				state[p] = rng.Float64() < m.POn
			}
		}
	}
	g := graph.New(m.Template.N())
	for v := 0; v < g.N(); v++ {
		g.AddEdge(v, v)
	}
	for _, p := range edges {
		if state[p] {
			g.AddEdge(p.u, p.v)
			g.AddEdge(p.v, p.u)
		}
	}
	return g
}
