package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// TestFamilyGolden pins every family's edge list, in insertion order,
// before and after AssignPorts, to hashes recorded from the constructors
// as they stood before the static families were rewritten as arc lists.
// A static family's arc list must hash the same: it is what a
// topology-cache miss flattens and what the constructor builds from, so
// neither may drift in order, loop placement or ports.
func TestFamilyGolden(t *testing.T) {
	seeded := func() *rand.Rand { return rand.New(rand.NewSource(7)) }
	cases := []struct {
		name          string
		graph         func() *Graph
		arcs          func() []Edge // nil for the random families
		plain, ported string
	}{
		{"ring 1", func() *Graph { return Ring(1) }, func() []Edge { return RingArcs(1) }, "18416c35d459d339", "e72849c056c353e5"},
		{"bidiring 1", func() *Graph { return BidirectionalRing(1) }, func() []Edge { return BidirectionalRingArcs(1) }, "a17138988e138753", "d1e6414acf1391a8"},
		{"star 1", func() *Graph { return Star(1) }, func() []Edge { return StarArcs(1) }, "a17138988e138753", "d1e6414acf1391a8"},
		{"path 1", func() *Graph { return Path(1) }, func() []Edge { return PathArcs(1) }, "a17138988e138753", "d1e6414acf1391a8"},
		{"complete 1", func() *Graph { return Complete(1) }, func() []Edge { return CompleteArcs(1) }, "a17138988e138753", "d1e6414acf1391a8"},
		{"ring 2", func() *Graph { return Ring(2) }, func() []Edge { return RingArcs(2) }, "1cf2f1502efb2a46", "b77bc4fb6ae01cad"},
		{"bidiring 2", func() *Graph { return BidirectionalRing(2) }, func() []Edge { return BidirectionalRingArcs(2) }, "1cf2f1502efb2a46", "b77bc4fb6ae01cad"},
		{"star 2", func() *Graph { return Star(2) }, func() []Edge { return StarArcs(2) }, "2492bb7545c61f67", "6468c3522da19530"},
		{"path 2", func() *Graph { return Path(2) }, func() []Edge { return PathArcs(2) }, "c6cac5926ed8dc58", "edab2be1697a386d"},
		{"complete 2", func() *Graph { return Complete(2) }, func() []Edge { return CompleteArcs(2) }, "c6cac5926ed8dc58", "edab2be1697a386d"},
		{"ring 3", func() *Graph { return Ring(3) }, func() []Edge { return RingArcs(3) }, "c8422ae334fa1b7f", "98ade97e877a2963"},
		{"bidiring 3", func() *Graph { return BidirectionalRing(3) }, func() []Edge { return BidirectionalRingArcs(3) }, "1e111b92ee4d9f6d", "4ee091f86a3dd219"},
		{"star 3", func() *Graph { return Star(3) }, func() []Edge { return StarArcs(3) }, "32fa26ccf8e82da7", "fbb8bcf3ce0706b4"},
		{"path 3", func() *Graph { return Path(3) }, func() []Edge { return PathArcs(3) }, "5c7ba2cf7f9033d1", "214bd2363acd068f"},
		{"complete 3", func() *Graph { return Complete(3) }, func() []Edge { return CompleteArcs(3) }, "18757723c9215c37", "f9bbb62479a734ee"},
		{"ring 10", func() *Graph { return Ring(10) }, func() []Edge { return RingArcs(10) }, "c54d4d1eba99a8d5", "f224f1b59ae42131"},
		{"bidiring 10", func() *Graph { return BidirectionalRing(10) }, func() []Edge { return BidirectionalRingArcs(10) }, "3a8d0d79267053f5", "58f1e088d744e930"},
		{"star 10", func() *Graph { return Star(10) }, func() []Edge { return StarArcs(10) }, "a03091ed8c10ca5d", "96c5010897afa56c"},
		{"path 10", func() *Graph { return Path(10) }, func() []Edge { return PathArcs(10) }, "dfe0a60370c4f26b", "169b316535555306"},
		{"complete 10", func() *Graph { return Complete(10) }, func() []Edge { return CompleteArcs(10) }, "666f446b09dc3aad", "8b9bd58b4619233b"},
		{"hypercube 0", func() *Graph { return Hypercube(0) }, func() []Edge { return HypercubeArcs(0) }, "a17138988e138753", "d1e6414acf1391a8"},
		{"hypercube 1", func() *Graph { return Hypercube(1) }, func() []Edge { return HypercubeArcs(1) }, "1cf2f1502efb2a46", "b77bc4fb6ae01cad"},
		{"hypercube 3", func() *Graph { return Hypercube(3) }, func() []Edge { return HypercubeArcs(3) }, "ab67a0398b6a1cd1", "7b8764cf62fbd73f"},
		{"torus 1 1", func() *Graph { return Torus(1, 1) }, func() []Edge { return TorusArcs(1, 1) }, "a17138988e138753", "d1e6414acf1391a8"},
		{"torus 2 2", func() *Graph { return Torus(2, 2) }, func() []Edge { return TorusArcs(2, 2) }, "592cdd839d44cf4d", "f040657265139a9c"},
		{"torus 1 5", func() *Graph { return Torus(1, 5) }, func() []Edge { return TorusArcs(1, 5) }, "884674434c997b7f", "bd53955214889a0e"},
		{"torus 5 1", func() *Graph { return Torus(5, 1) }, func() []Edge { return TorusArcs(5, 1) }, "884674434c997b7f", "bd53955214889a0e"},
		{"torus 2 3", func() *Graph { return Torus(2, 3) }, func() []Edge { return TorusArcs(2, 3) }, "9e0712cf50f16471", "5060b4eeccc5e8cd"},
		{"torus 3 4", func() *Graph { return Torus(3, 4) }, func() []Edge { return TorusArcs(3, 4) }, "ba1bbcb40598d477", "4f497bf2e5ebb4e3"},
		{"debruijn 1 0", func() *Graph { return DeBruijn(1, 0) }, func() []Edge { return DeBruijnArcs(1, 0) }, "a17138988e138753", "d1e6414acf1391a8"},
		{"debruijn 1 3", func() *Graph { return DeBruijn(1, 3) }, func() []Edge { return DeBruijnArcs(1, 3) }, "a17138988e138753", "d1e6414acf1391a8"},
		{"debruijn 2 0", func() *Graph { return DeBruijn(2, 0) }, func() []Edge { return DeBruijnArcs(2, 0) }, "18416c35d459d339", "e72849c056c353e5"},
		{"debruijn 2 1", func() *Graph { return DeBruijn(2, 1) }, func() []Edge { return DeBruijnArcs(2, 1) }, "c6cac5926ed8dc58", "edab2be1697a386d"},
		{"debruijn 2 3", func() *Graph { return DeBruijn(2, 3) }, func() []Edge { return DeBruijnArcs(2, 3) }, "13a464efd0881694", "bf25f0f1897e1e1b"},
		{"debruijn 3 2", func() *Graph { return DeBruijn(3, 2) }, func() []Edge { return DeBruijnArcs(3, 2) }, "c4a9203b10b464f6", "17a3ffd8406317ce"},
		{"random 10", func() *Graph { return RandomStronglyConnected(10, 10, seeded()) }, nil, "43c272fb1e776590", "806a0ad471dadec8"},
		{"randomsym 10", func() *Graph { return RandomSymmetricConnected(10, 10, seeded()) }, nil, "378c5ca98d811df9", "f39b092c2dc8a8e4"},
		{"geometric 20", func() *Graph { return RandomGeometric(20, 0.35, seeded()) }, nil, "5ca1b24a030d2889", "f929853b0516ffcc"},
	}
	for _, tc := range cases {
		g := tc.graph()
		if got := edgeHash(g.Edges()); got != tc.plain {
			t.Errorf("%s: edge list hash %s, want %s", tc.name, got, tc.plain)
		}
		if got := edgeHash(g.AssignPorts().Edges()); got != tc.ported {
			t.Errorf("%s: ported edge list hash %s, want %s", tc.name, got, tc.ported)
		}
		if tc.arcs == nil {
			continue
		}
		if got := edgeHash(tc.arcs()); got != tc.plain {
			t.Errorf("%s: arc list hash %s, want %s", tc.name, got, tc.plain)
		}
		if got := edgeHash(NumberPorts(g.N(), tc.arcs())); got != tc.ported {
			t.Errorf("%s: numbered arc list hash %s, want %s", tc.name, got, tc.ported)
		}
	}
}

// edgeHash is a short digest of an edge list: one "from to port" line per
// edge, in order.
func edgeHash(es []Edge) string {
	h := sha256.New()
	for _, e := range es {
		fmt.Fprintf(h, "%d %d %d\n", e.From, e.To, e.Port)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
