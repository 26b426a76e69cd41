package topology_test

// FuzzSnapshotBuild checks the CSR build on random digraphs, with and
// without churn: every snapshot equals, array for array, the flattening
// testutil.CheckSnapshot recomputes from the graph independently of the
// counting sorts, so each destination's entries follow the delivery-order
// invariant — sources ascending, edge insertion order — that makes the
// four engines' traces byte-identical by construction. On raw arc lists
// (self-loops not ensured, arbitrary ports, parallel arcs) it checks the
// CSR validator against the graph package's predicates under every
// registered model.

import (
	"strings"
	"testing"

	"anonnet/internal/dynamic"
	"anonnet/internal/faults"
	"anonnet/internal/graph"
	"anonnet/internal/model"
	"anonnet/internal/testutil"
	"anonnet/internal/topology"
)

// buildGraph decodes a fuzz byte string into a digraph on n vertices: bytes
// are consumed pairwise as (from, to) edges, then self-loops are ensured so
// the graph is a legal round graph.
func buildGraph(n int, edges []byte) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < len(edges) && i < 120; i += 2 {
		g.AddEdge(int(edges[i])%n, int(edges[i+1])%n)
	}
	return g.EnsureSelfLoops()
}

// rawArcs decodes a fuzz byte string into arcs on n vertices, consumed as
// (from, to, port) triples: self-loops are not ensured, parallel arcs
// stay, and ports are arbitrary in 0..7, so every §2.1 check can fail.
func rawArcs(n int, b []byte) []graph.Edge {
	var arcs []graph.Edge
	for i := 0; i+2 < len(b) && i < 120; i += 3 {
		arcs = append(arcs, graph.Edge{From: int(b[i]) % n, To: int(b[i+1]) % n, Port: int(b[i+2] % 8)})
	}
	return arcs
}

// rawSchedule serves one graph as-is every round; unlike dynamic.Static
// it does not add missing self-loops.
type rawSchedule struct{ g *graph.Graph }

func (r rawSchedule) N() int              { return r.g.N() }
func (r rawSchedule) At(int) *graph.Graph { return r.g }

// checkValidator asserts that the CSR validator accepts arcs under every
// registered model exactly when the graph predicates hold — HasSelfLoops,
// IsSymmetric if the model requires it, PortsValid if it requires ports —
// and otherwise fails with the first failing check's error, in that
// order, through BuildSnapshot and Provider.Round alike.
func checkValidator(t *testing.T, n int, arcs []graph.Edge) {
	t.Helper()
	g := graph.New(n)
	for _, a := range arcs {
		g.AddPortEdge(a.From, a.To, a.Port)
	}
	for _, d := range model.Descriptors() {
		want := ""
		switch {
		case !g.HasSelfLoops():
			want = "graph lacks self-loops"
		case d.RequireSymmetric && !g.IsSymmetric():
			want = "graph is not symmetric"
		case d.RequirePorts && !g.PortsValid():
			want = "graph has no valid port labelling"
		}
		snap, err := topology.BuildSnapshot(n, arcs, d.Kind)
		_, perr := topology.NewProvider(rawSchedule{g}, d.Kind).Round(1)
		if want == "" {
			if err != nil || perr != nil {
				t.Fatalf("%s: %v rejected (build: %v; provider: %v), want accepted", d.Canon, g, err, perr)
			}
			testutil.CheckSnapshot(t, g, snap, d.Kind, 1)
			continue
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: %v: build error %v, want one saying %q", d.Canon, g, err, want)
		}
		if perr == nil || perr.Error() != err.Error() {
			t.Fatalf("%s: %v: provider error %v, build error %v, want the same", d.Canon, g, perr, err)
		}
	}
}

func FuzzSnapshotBuild(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 1, 2, 2, 0}, int64(7), false)
	f.Add(uint8(5), []byte{0, 1, 0, 1, 3, 4, 4, 3, 2, 2}, int64(11), true)
	f.Add(uint8(9), []byte{}, int64(0), true)
	f.Add(uint8(4), []byte{1, 0, 2, 0, 3, 0, 0, 1, 0, 2, 0, 3}, int64(23), false)
	f.Add(uint8(1), []byte{0, 0, 1, 0, 1, 2, 1, 1, 1, 1, 0, 2, 2, 2, 1}, int64(3), false)
	f.Fuzz(func(t *testing.T, nb uint8, edges []byte, seed int64, churn bool) {
		n := 2 + int(nb%12)
		g := buildGraph(n, edges)

		// Static, broadcast model: one build, checked directly.
		p := topology.NewProvider(dynamic.NewStatic(g), model.SimpleBroadcast)
		snap, err := p.Round(1)
		if err != nil {
			t.Fatal(err)
		}
		testutil.CheckSnapshot(t, g, snap, model.SimpleBroadcast, 1)

		// Same graph with a valid port labelling under the output-port
		// model: Slot must become port−1.
		pg := g.AssignPorts()
		pp := topology.NewProvider(dynamic.NewStatic(pg), model.OutputPortAware)
		psnap, err := pp.Round(1)
		if err != nil {
			t.Fatal(err)
		}
		testutil.CheckSnapshot(t, pg, psnap, model.OutputPortAware, 1)

		// Raw arcs; then with a self-loop appended at every vertex, so the
		// symmetry and port checks decide; then with AssignPorts' ports.
		arcs := rawArcs(n, edges)
		checkValidator(t, n, arcs)
		looped := append([]graph.Edge(nil), arcs...)
		for v := 0; v < n; v++ {
			looped = append(looped, graph.Edge{From: v, To: v, Port: v % 3})
		}
		checkValidator(t, n, looped)
		checkValidator(t, n, graph.NumberPorts(n, looped))

		if !churn {
			return
		}
		// Churn-wrapped: a fresh graph per window, invariants on every
		// round's snapshot against that round's actual graph.
		sched, err := faults.WrapSchedule(dynamic.NewStatic(g), seed,
			&faults.ChurnPlan{Drop: 0.4, Window: 2, Guard: faults.GuardOff})
		if err != nil {
			t.Fatal(err)
		}
		cp := topology.NewProvider(sched, model.SimpleBroadcast)
		for r := 1; r <= 6; r++ {
			rg := sched.At(r)
			if rg == nil {
				t.Fatalf("round %d: churned schedule returned nil", r)
			}
			rsnap, err := cp.Round(r)
			if err != nil {
				t.Fatal(err)
			}
			testutil.CheckSnapshot(t, rg, rsnap, model.SimpleBroadcast, r)
		}
	})
}
