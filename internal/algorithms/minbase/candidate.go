package minbase

import (
	"fmt"
	"sort"
	"strings"

	"anonnet/internal/funcs"
	"anonnet/internal/graph"
)

// Base is a candidate minimum base B_{w,b} (§4.2): vertex i carries the
// input value w_i of its fibre (with the leader flag of §4.5), the common
// outdegree b_i of the fibre's members, and D[i][j] counts the base edges
// i→j (the d_{i,j} of eq. (1)).
type Base struct {
	Values []float64
	Leader []bool
	Out    []int
	D      [][]int
}

// N returns the number of base vertices (fibres).
func (b *Base) N() int { return len(b.Values) }

// Multiset returns the value multiset obtained by giving value w_i the
// multiplicity z_i — the reconstructed input multiset of §4.2, up to the
// common factor k of eq. (2).
func (b *Base) Multiset(z []int) *funcs.Args {
	entries := make([]funcs.Entry, len(b.Values))
	for i, v := range b.Values {
		entries[i] = funcs.Entry{Value: v, Count: z[i]}
	}
	return funcs.CountArgs(entries)
}

// LeaderWeight returns Σ_{j ∈ L_B} z_j, the denominator of eq. (5).
func (b *Base) LeaderWeight(z []int) int {
	s := 0
	for i, isLeader := range b.Leader {
		if isLeader {
			s += z[i]
		}
	}
	return s
}

// IsSymmetricQuotient reports whether D has a symmetric support
// (d_{i,j} > 0 ⟺ d_{j,i} > 0), which the base of a bidirectional network
// always has (§4.3).
func (b *Base) IsSymmetricQuotient() bool {
	for i := range b.D {
		for j := range b.D[i] {
			if (b.D[i][j] > 0) != (b.D[j][i] > 0) {
				return false
			}
		}
	}
	return true
}

// String renders a stable description for test output.
func (b *Base) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "base(m=%d;", b.N())
	for i := range b.Values {
		fmt.Fprintf(&sb, " v%d=%g/out%d", i, b.Values[i], b.Out[i])
		if b.Leader[i] {
			sb.WriteString("/L")
		}
	}
	sb.WriteString(";")
	for i := range b.D {
		for j := range b.D[i] {
			if b.D[i][j] > 0 {
				fmt.Fprintf(&sb, " %d>%d*%d", i, j, b.D[i][j])
			}
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// ExtractBase extracts a candidate minimum base from a signature table.
//
// A level ℓ ≥ 1 is *conservative* when the labels known at ℓ are in
// bijection with the labels known at ℓ-1 via their Prev component and all
// their in-references resolve at ℓ-1 — i.e. the refinement step ℓ-1 → ℓ did
// not split any known class. The extractor finds the longest stretch of
// consecutive conservative levels and reads the base off the stretch's
// middle level: once the table is complete up to the true stable partition
// (round n + D), the stretch covers it and the middle level is both stable
// and completely known, so the candidate equals the minimum base; taking
// the middle guards against transient stretches among the youngest,
// still-incomplete levels.
func ExtractBase(levels map[int]map[string]Sig) (*Base, bool) {
	if len(levels) == 0 {
		return nil, false
	}
	maxLevel := 0
	for l := range levels {
		if l > maxLevel {
			maxLevel = l
		}
	}
	conservative := make([]bool, maxLevel+1)
	for l := 1; l <= maxLevel; l++ {
		conservative[l] = isConservative(levels[l], levels[l-1])
	}
	bestStart, bestLen := 0, 0
	runStart := -1
	for l := 1; l <= maxLevel+1; l++ {
		if l <= maxLevel && conservative[l] {
			if runStart == -1 {
				runStart = l
			}
			continue
		}
		if runStart != -1 {
			if runLen := l - runStart; runLen > bestLen {
				bestStart, bestLen = runStart, runLen
			}
			runStart = -1
		}
	}
	if bestLen == 0 {
		return nil, false
	}
	mid := bestStart + bestLen/2
	if mid > bestStart+bestLen-1 {
		mid = bestStart + bestLen - 1
	}
	return buildBase(levels[mid], levels[mid-1])
}

// isConservative checks the bijectivity and closure conditions between two
// consecutive levels.
func isConservative(cur, prev map[string]Sig) bool {
	if len(cur) == 0 || len(cur) != len(prev) {
		return false
	}
	seenPrev := make(map[string]bool, len(cur))
	for _, s := range cur {
		if _, ok := prev[s.Prev]; !ok {
			return false
		}
		if seenPrev[s.Prev] {
			return false // ψ not injective
		}
		seenPrev[s.Prev] = true
		for _, r := range s.In {
			if _, ok := prev[r.Prev]; !ok {
				return false
			}
		}
	}
	return len(seenPrev) == len(prev) // ψ surjective
}

// buildBase reads the base off a conservative level: vertices are the
// level's labels (sorted, for determinism); an in-reference to a previous-
// level label m contributes edges from ψ⁻¹(m).
func buildBase(cur, prev map[string]Sig) (*Base, bool) {
	labels := make([]string, 0, len(cur))
	for l := range cur {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	// ψ⁻¹: previous-level label → vertex whose Prev it is.
	prevInv := make(map[string]int, len(labels))
	for i, l := range labels {
		prevInv[cur[l].Prev] = i
	}
	b := &Base{
		Values: make([]float64, len(labels)),
		Leader: make([]bool, len(labels)),
		Out:    make([]int, len(labels)),
		D:      make([][]int, len(labels)),
	}
	for i, l := range labels {
		s := cur[l]
		in, err := DecodeInput(s.Value)
		if err != nil {
			return nil, false
		}
		b.Values[i] = in.Value
		b.Leader[i] = in.Leader
		b.Out[i] = s.Out
		b.D[i] = make([]int, len(labels))
	}
	for i, l := range labels {
		for _, r := range cur[l].In {
			src, ok := prevInv[r.Prev]
			if !ok {
				return nil, false
			}
			b.D[src][i] += r.Count
		}
	}
	return b, true
}

// VertexLabel renders the isomorphism-relevant data of base vertex i:
// value, outdegree, and leader flag.
func (b *Base) VertexLabel(i int) string {
	l := ""
	if b.Leader[i] {
		l = "/L"
	}
	return fmt.Sprintf("%g/out%d%s", b.Values[i], b.Out[i], l)
}

// ToGraph converts the base to a graph plus vertex labels, so candidates
// can be compared up to isomorphism (minimum bases are unique only up to
// isomorphism, §3.2, and the distributed extractor's vertex order follows
// hash labels, which shift as the extraction level advances).
func (b *Base) ToGraph() (*graph.Graph, []string) {
	g := graph.New(b.N())
	labels := make([]string, b.N())
	for i := 0; i < b.N(); i++ {
		labels[i] = b.VertexLabel(i)
		for j := 0; j < b.N(); j++ {
			for c := 0; c < b.D[i][j]; c++ {
				g.AddEdge(i, j)
			}
		}
	}
	return g, labels
}

// Isomorphic reports whether two bases are isomorphic as valued
// multigraphs.
func (b *Base) Isomorphic(other *Base) bool {
	if b.N() != other.N() {
		return false
	}
	g1, l1 := b.ToGraph()
	g2, l2 := other.ToGraph()
	return graph.Isomorphic(g1, g2, l1, l2)
}
