package testutil

import (
	"sort"
	"testing"

	"anonnet/internal/graph"
	"anonnet/internal/model"
	"anonnet/internal/topology"
)

// csr is a destination-major flattening of a round graph, with the same
// arrays as a topology.Snapshot.
type csr struct {
	N, M                           int
	Start, Src, Slot, Port, Outdeg []int32
}

// naiveCSR flattens g for kind the obvious way, independently of the
// topology package's counting sorts: each destination's entries are the
// edges into it stably sorted by source, so one source's edges keep their
// insertion order (the delivery-order invariant every engine inherits).
// Slot is port−1 under a model with port slots and 0 otherwise. kind must
// be registered.
func naiveCSR(g *graph.Graph, kind model.Kind) csr {
	desc, err := model.Lookup(kind)
	if err != nil {
		panic(err)
	}
	n, m := g.N(), g.M()
	c := csr{N: n, M: m, Start: make([]int32, n+1), Outdeg: make([]int32, n)}
	into := make([][]int, n)
	for e := 0; e < m; e++ {
		ed := g.Edge(e)
		into[ed.To] = append(into[ed.To], e)
		c.Outdeg[ed.From]++
	}
	for j, es := range into {
		sort.SliceStable(es, func(a, b int) bool { return g.Edge(es[a]).From < g.Edge(es[b]).From })
		for _, e := range es {
			ed := g.Edge(e)
			slot := 0
			if desc.PortSlots {
				slot = ed.Port - 1
			}
			c.Src = append(c.Src, int32(ed.From))
			c.Slot = append(c.Slot, int32(slot))
			c.Port = append(c.Port, int32(ed.Port))
		}
		c.Start[j+1] = int32(len(c.Src))
	}
	return c
}

// CheckSnapshot fails t unless s equals naiveCSR(g, kind) array for array
// (Start, Src, Slot, Port, Outdeg) and in N and M; round labels the
// failure.
func CheckSnapshot(t testing.TB, g *graph.Graph, s *topology.Snapshot, kind model.Kind, round int) {
	t.Helper()
	want := naiveCSR(g, kind)
	if s.N() != want.N || s.M() != want.M {
		t.Fatalf("round %d: snapshot is %d×%d, graph is %d×%d", round, s.N(), s.M(), want.N, want.M)
	}
	for _, a := range []struct {
		name      string
		got, want []int32
	}{
		{"Start", s.Start, want.Start},
		{"Src", s.Src, want.Src},
		{"Slot", s.Slot, want.Slot},
		{"Port", s.Port, want.Port},
		{"Outdeg", s.Outdeg, want.Outdeg},
	} {
		if len(a.got) != len(a.want) {
			t.Fatalf("round %d (kind %v): %s has %d entries, want %d", round, kind, a.name, len(a.got), len(a.want))
		}
		for i := range a.got {
			if a.got[i] != a.want[i] {
				t.Fatalf("round %d (kind %v): %s[%d] = %d, want %d", round, kind, a.name, i, a.got[i], a.want[i])
			}
		}
	}
}
