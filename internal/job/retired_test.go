package job

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"anonnet/internal/engine"
	"anonnet/internal/faults"
)

// retiredWorkloads are the base specs of TestRetiredEngineNames: a
// Push-Sum job on a dynamic network and a gossip job, which runs on the
// flooding kernel when fault-free, each with and without a fault plan.
func retiredWorkloads() []struct {
	name string
	spec Spec
} {
	plan := &faults.Plan{Drop: 0.1, DelayP: 0.2, DelayMax: 3, Stall: 0.05}
	pushsum := Spec{Graph: GraphSpec{Builder: "splitring", N: 8}, Kind: "od", Function: "average",
		Values: []float64{3, 1, 4, 1, 5, 9, 2, 6}, Seed: 7, MaxRounds: 400}
	gossip := Spec{Graph: GraphSpec{Builder: "ring", N: 8}, Kind: "bc", Function: "max",
		Values: []float64{3, 1, 4, 1, 5, 9, 2, 6}, Seed: 7, MaxRounds: 100}
	pushsumFaults, gossipFaults := pushsum, gossip
	pushsumFaults.Faults, gossipFaults.Faults = plan, plan
	return []struct {
		name string
		spec Spec
	}{{"pushsum", pushsum}, {"pushsum+faults", pushsumFaults}, {"gossip", gossip}, {"gossip+faults", gossipFaults}}
}

// retiredEngines are the spellings of the retired engines a spec can
// carry; class names the spellings that share one canonical form, and so
// one hash.
var retiredEngines = []struct {
	name, class string
	set         func(*Spec)
}{
	{"shard", "shard", func(s *Spec) { s.Engine = "shard" }},
	{"shard3", "shard3", func(s *Spec) { s.Engine, s.Shards = "shard", 3 }},
	{"sharded", "shard", func(s *Spec) { s.Engine = "sharded" }},
	{"conc", "conc", func(s *Spec) { s.Engine = "conc" }},
	{"concurrent", "conc", func(s *Spec) { s.Engine = "concurrent" }},
	{"concurrent:true", "conc", func(s *Spec) { s.Concurrent = true }},
}

// retiredEngineHashes are the spec hashes of every workload and class,
// recorded from the build that still had the sharded engine.
var retiredEngineHashes = map[string]map[string]string{
	"pushsum": {
		"shard":  "bf60b1af9deec762a93877c46d7b0f1a34c9147d7e12c4f191fb4f9709a963a4",
		"shard3": "584250f9bb86b22feb1625bd5b47866449a0509e7094e06377b4c9438bbcbef6",
		"conc":   "61c8bcda62ddd82a6af0b4417301dea9821a00e5a3ae6523a07f68b9a274824f",
	},
	"pushsum+faults": {
		"shard":  "30ef92aa65754c8a1e80f4820c58af3cd7c81afad86d1822e06f97b500e08bdc",
		"shard3": "6a9a3f83c58c073aa47a6df4abb420ec98474f8e63ba2dfdbf70671c300b3deb",
		"conc":   "ba11ce8c3d2ad4c57cd02f8563f3b72cc65ae6ccc6d076a01e370d647bc9df0f",
	},
	"gossip": {
		"shard":  "e8f915aa356c2176273681d35b586bd4501532b8058a75a1ce0c17019368172b",
		"shard3": "22492408a75bc921c7dd68734d8f801dce0ad8227f92b28be11a0f0ac1bb3344",
		"conc":   "1239631ec1e88e9aefbaf92a72a94de862aef5207afc70c5fca8f684c6f55a7b",
	},
	"gossip+faults": {
		"shard":  "3a9c61700fd64985f3e1875dd989980341a26668a17b838640f8ac07feeca96d",
		"shard3": "17152dd640d8eb1df7e957d886e2c3ac8a70b2854bbded859c75986aa21d192e",
		"conc":   "9b628c72090e820b46ece4d4cc4d23fc7364e8821ea129c220a8fe7a2b71de24",
	},
}

// runTyped compiles and runs s, returning the Result's JSON encoding and
// the type of the runner it ran on.
func runTyped(t *testing.T, s Spec) (string, string) {
	t.Helper()
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	var typ string
	res, err := Run(context.Background(), c, func(_ int, r engine.Runner) { typ = fmt.Sprintf("%T", r) })
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), typ
}

// TestRetiredEngineNames: a spec naming the retired sharded engine —
// engine "shard" with any shard count, or "sharded" — or the retired
// concurrent one — engine "conc" or "concurrent", or concurrent:true —
// keeps the hash it had while the sharded engine existed, runs on the
// runner the same spec with no engine set runs on (the flooding kernel for
// fault-free gossip, the sequential engine otherwise), and returns that
// spec's Result byte for byte.
func TestRetiredEngineNames(t *testing.T) {
	for _, w := range retiredWorkloads() {
		want, wantTyp := runTyped(t, w.spec)
		if w.name == "gossip" && wantTyp != "*engine.Flood" {
			t.Fatalf("fault-free gossip ran on %s, want *engine.Flood", wantTyp)
		}
		for _, e := range retiredEngines {
			t.Run(w.name+"/"+e.name, func(t *testing.T) {
				s := w.spec
				e.set(&s)
				if h, err := s.Hash(); err != nil || h != retiredEngineHashes[w.name][e.class] {
					t.Fatalf("hash %q (%v), want %q", h, err, retiredEngineHashes[w.name][e.class])
				}
				got, typ := runTyped(t, s)
				if typ != wantTyp {
					t.Errorf("ran on %s, want %s as with no engine set", typ, wantTyp)
				}
				if got != want {
					t.Errorf("result %s, want the result with no engine set %s", got, want)
				}
			})
		}
	}
}
