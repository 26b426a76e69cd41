package job

import (
	"context"
	"errors"
	"testing"

	"anonnet/internal/engine"
	"anonnet/internal/funcs"
)

// TestOneSpecOneResult pins the system's central invariant on fractional
// inputs, where a float sum's last bit depends on the order its terms are
// added in. Every frequency- and multiset-based catalog function is
// compiled into a static od spec (freqcalc), a dynamic od spec (Push-Sum
// frequency agents) and a dynamic sym spec (Metropolis frequency agents);
// multiset-based functions take row "size", and frequency-based ones row
// "bound" under sym, whose no-help cell has no runnable algorithm (DESIGN
// §6). Each spec runs repeatedly on
// every engine — seq, vec, and vec with shards (the parallel kernel) —
// straight through and through RunCheckpointed flushed mid-run
// and resumed, and must yield exactly one Result encoding.
//
// The static average spec and its sum/size twin must also stabilize at
// round 6, as their integer-valued twins do (EXPERIMENTS F2).
func TestOneSpecOneResult(t *testing.T) {
	const (
		repeats = 3
		stopAt  = 4 // mid-run flush round of the checkpointed run
	)
	static := []float64{0.1, 0.7, 2.3, 1.9, 0.3, 3.7}
	dyn := []float64{0.1, 1, 2.3, 1, 0.3, 0.7}
	engines := []struct {
		name   string
		shards int
	}{{"seq", 0}, {"vec", 0}, {"vec", 2}}
	for _, f := range funcs.Catalog() {
		if f.Class == funcs.SetBased {
			continue
		}
		row, symRow, boundN := "", "bound", 6
		if f.Class == funcs.MultisetBased {
			row, symRow, boundN = "size", "size", 0
		}
		specs := []struct {
			name string
			spec Spec
		}{
			{"static-od", Spec{Graph: GraphSpec{Builder: "ring", N: 6}, Kind: "od", Row: row, Function: f.Name,
				Values: static, Seed: 5, MaxRounds: 80, Patience: 30}},
			{"dynamic-od", Spec{Graph: GraphSpec{Builder: "splitring", N: 6}, Kind: "od", Row: row, Function: f.Name,
				Values: dyn, Seed: 5, MaxRounds: 60, Patience: 20}},
			{"dynamic-sym", Spec{Graph: GraphSpec{Builder: "randomdyn", N: 6}, Kind: "sym", Row: symRow, BoundN: boundN,
				Function: f.Name, Values: dyn, Seed: 5, MaxRounds: 60, Patience: 20}},
		}
		for _, sc := range specs {
			t.Run(f.Name+"/"+sc.name, func(t *testing.T) {
				t.Parallel()
				encodings := map[string]int{}
				var first *Result
				for _, eng := range engines {
					s := sc.spec
					s.Engine, s.Shards = eng.name, eng.shards
					for i := 0; i < repeats; i++ {
						res, _ := runResult(t, s, 0)
						if first == nil {
							first = res
						}
						encodings[string(AppendResult(nil, res))]++
					}
					res, resumed := runResult(t, s, stopAt)
					if !resumed && sc.name != "static-od" {
						t.Fatalf("%s: the checkpointed run was not flushed at round %d and resumed", eng.name, stopAt)
					}
					encodings[string(AppendResult(nil, res))]++
				}
				if len(encodings) != 1 {
					for enc, k := range encodings {
						t.Logf("%d× %s", k, enc)
					}
					t.Fatalf("%d distinct Result encodings, want 1", len(encodings))
				}
				if sc.name == "static-od" && (f.Name == "average" || f.Name == "sum") {
					if !first.Stable || first.StabilizedAt != 6 {
						t.Fatalf("stable=%v stabilized_at=%d, want stable at round 6", first.Stable, first.StabilizedAt)
					}
				}
			})
		}
	}
}

// runResult compiles s and runs it to the end: straight through, or, when
// stopAt > 0, through RunCheckpointed flushed at round stopAt and resumed
// from that checkpoint. A job whose algorithm cannot checkpoint (freqcalc)
// ignores the flush and runs straight through; resumed reports whether
// the run was flushed and resumed.
func runResult(t *testing.T, s Spec, stopAt int) (res *Result, resumed bool) {
	t.Helper()
	compile := func() *Compiled {
		c, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ctx := context.Background()
	if stopAt == 0 {
		res, err := Run(ctx, compile(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, false
	}
	flush := make(chan struct{}, 1)
	var blob []byte
	res, err := RunCheckpointed(ctx, build(t, compile()), func(round int, _ engine.Runner) {
		if round == stopAt {
			flush <- struct{}{}
		}
	}, CheckpointConfig{Flush: flush, Save: func(b []byte) error { blob = b; return nil }})
	if resumed = errors.Is(err, engine.ErrInterrupted); resumed {
		res, err = RunCheckpointed(ctx, build(t, compile()), nil, CheckpointConfig{Resume: blob})
	}
	if err != nil {
		t.Fatal(err)
	}
	return res, resumed
}
