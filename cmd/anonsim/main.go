// Command anonsim runs one algorithm on one anonymous network and prints
// the output trace — the interactive front end to the library.
//
// Usage examples:
//
//	anonsim -graph ring:8 -kind od -func average -values 3,1,4,1,5,9,2,6
//	anonsim -graph bidiring:6 -kind sym -func max -values 1,7,3,2,5,4
//	anonsim -graph splitring:6 -dynamic -kind od -func average -row bound -bound 8 -values 1,2,2,1,2,2
//	anonsim -graph star:5 -kind od -func sum -row leader -leaders 0 -values 9,4,4,4,4
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"anonnet"
	"anonnet/internal/core"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/faults"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "anonsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		graphSpec  = flag.String("graph", "ring:6", "network: ring:N, bidiring:N, star:N, path:N, complete:N, hypercube:D, debruijn:K.D, torus:R.C, random:N, randomsym:N, geometric:N, splitring:N, randomdyn:N, pairwise:N")
		kindFlag   = flag.String("kind", "od", "communication model: "+strings.Join(model.Names(), ", "))
		funcFlag   = flag.String("func", "average", "function: one of the catalog names (average, max, min, sum, count, mode, median, …)")
		valuesFlag = flag.String("values", "", "comma-separated input values (default 1..n)")
		rowFlag    = flag.String("row", "nohelp", "centralized help: nohelp, bound, size, leader")
		boundN     = flag.Int("bound", 0, "known bound N ≥ n (row=bound)")
		leadersArg = flag.String("leaders", "", "comma-separated leader agent indices (row=leader)")
		dynFlag    = flag.Bool("dynamic", false, "treat the setting as dynamic (Table 2)")
		rounds     = flag.Int("rounds", 2000, "round budget")
		every      = flag.Int("every", 0, "print outputs every k rounds (0: only the final)")
		seed       = flag.Int64("seed", 1, "RNG seed")
		engineFlag = flag.String("engine", "", "round engine: "+engine.NamesList()+" (vec falls back to seq when the algorithm is not vectorizable)")
		parallel   = flag.Int("parallel", 0, "degree of parallelism: shard count for -engine shard (0: one per core), worker count for -engine vec (0: single-threaded kernel)")
		dot        = flag.Bool("dot", false, "print the round-1 network in Graphviz dot format and exit")

		dropP    = flag.Float64("drop", 0, "fault: per-message drop probability")
		dupP     = flag.Float64("dup", 0, "fault: per-message duplication probability")
		delayP   = flag.Float64("delayp", 0, "fault: per-message delay probability")
		delayMax = flag.Int("delay", 0, "fault: maximum delay in rounds (with -delayp; 0 means 1)")
		stallP   = flag.Float64("stall", 0, "fault: per-agent per-round stall probability")
		crashP   = flag.Float64("crash", 0, "fault: per-agent per-round crash-restart probability")
		churnP   = flag.Float64("churn", 0, "fault: per-link per-window removal probability")
		guard    = flag.String("guard", "repair", "churn connectivity guard: off, reject, repair")
	)
	flag.Parse()

	schedule, static, err := parseGraph(*graphSpec, *seed)
	if err != nil {
		return err
	}
	n := schedule.N()
	if *dot {
		fmt.Print(schedule.At(1).DOT(*graphSpec, nil))
		return nil
	}
	kind, err := parseKind(*kindFlag)
	if err != nil {
		return err
	}
	desc, err := model.Lookup(kind)
	if err != nil {
		return err
	}
	f, err := lookupFunc(*funcFlag)
	if err != nil {
		return err
	}
	inputs, err := parseInputs(*valuesFlag, n, desc.BinaryInputs)
	if err != nil {
		return err
	}
	leaders, err := parseInts(*leadersArg)
	if err != nil {
		return err
	}
	for _, l := range leaders {
		if l < 0 || l >= n {
			return fmt.Errorf("leader index %d out of range", l)
		}
		inputs[l].Leader = true
	}
	row, err := parseRow(*rowFlag)
	if err != nil {
		return err
	}
	setting := core.Setting{
		Kind: kind, Static: static && !*dynFlag, Row: row,
		BoundN: *boundN, KnownN: n, Leaders: len(leaders),
	}
	cell := setting.Cell()
	fmt.Printf("network: %s (n=%d, %s)\n", *graphSpec, n, map[bool]string{true: "static", false: "dynamic"}[setting.Static])
	fmt.Printf("model:   %v, help: %v\n", kind, row)
	fmt.Printf("cell:    %v\n", cell)
	fmt.Printf("func:    %s (%v)\n", f.Name, f.Class)

	factory, err := core.NewFactory(f, setting)
	if err != nil {
		return err
	}
	plan := faults.Plan{
		Drop: *dropP, Dup: *dupP, DelayP: *delayP, DelayMax: *delayMax,
		Stall: *stallP, Crash: *crashP,
	}
	if *churnP > 0 {
		if desc, err := model.Lookup(kind); err == nil && desc.RequirePorts {
			return fmt.Errorf("link churn cannot preserve the output-port labelling; use -kind bc, od, or sym")
		}
		plan.Churn = &faults.ChurnPlan{Drop: *churnP, Guard: *guard}
	}
	var injector *faults.Injector
	if !plan.IsZero() {
		injector, err = faults.NewInjector(*seed, plan)
		if err != nil {
			return err
		}
		schedule, err = faults.WrapSchedule(schedule, *seed, plan.Churn)
		if err != nil {
			return err
		}
		fmt.Printf("faults:  drop=%.2f dup=%.2f delay=%.2f(max %d) stall=%.2f crash=%.2f churn=%.2f guard=%s\n",
			plan.Drop, plan.Dup, plan.DelayP, plan.DelayMax, plan.Stall, plan.Crash, *churnP, *guard)
	}
	cfg := engine.Config{
		Schedule: schedule, Kind: kind, Inputs: inputs, Factory: factory, Seed: *seed,
	}
	if injector != nil {
		cfg.Faults = injector
	}
	r, err := newRunner(cfg, *engineFlag, *parallel)
	if err != nil {
		return err
	}
	defer r.Close()

	want := expectedValue(f, inputs)
	fmt.Printf("true value: %v\n\n", want)
	lastChange := 0
	prev := fmt.Sprint(r.Outputs())
	for t := 1; t <= *rounds; t++ {
		if err := r.Step(); err != nil {
			return err
		}
		cur := fmt.Sprint(r.Outputs())
		if cur != prev {
			lastChange = t
			prev = cur
		}
		if *every > 0 && t%*every == 0 {
			fmt.Printf("round %4d: %v\n", t, r.Outputs())
		}
	}
	fmt.Printf("final outputs after %d rounds: %v\n", *rounds, r.Outputs())
	fmt.Printf("outputs last changed at round %d\n", lastChange)
	st := r.Stats()
	fmt.Printf("communication: %d messages over %d rounds (%.1f per agent per round)\n",
		st.MessagesDelivered, st.Rounds, float64(st.MessagesDelivered)/float64(st.Rounds)/float64(n))
	if injector != nil {
		fmt.Printf("faults injected: %d dropped, %d duplicated, %d delayed\n",
			st.Faults.Dropped, st.Faults.Duplicated, st.Faults.Delayed)
	}
	return nil
}

// newRunner selects the round engine through the shared engine-name table
// and selection point. engine=vec falls back to the sequential engine —
// byte-identical traces — when the algorithm does not implement the
// vector contract.
func newRunner(cfg engine.Config, name string, parallel int) (engine.Runner, error) {
	if canon, ok := engine.CanonicalName(name); ok && canon == "vec" && !engine.CanVectorize(cfg) {
		fmt.Println("engine:  vec requested but the algorithm is not vectorizable; using seq (identical traces)")
	}
	return engine.NewRunner(cfg, name, parallel)
}

func expectedValue(f funcs.Func, inputs []model.Input) float64 {
	vals := make([]float64, len(inputs))
	for i, in := range inputs {
		vals[i] = in.Value
	}
	return f.FromVector(vals)
}

// parseKind resolves the -kind flag through the model registry, so every
// registered model — including registry-hosted extensions like onebit —
// and every alias is accepted, and the rejection lists what is.
func parseKind(s string) (model.Kind, error) {
	k, err := model.ParseKind(s)
	if err != nil {
		return 0, fmt.Errorf("unknown model %q (want %s)", s, model.NamesList())
	}
	return k, nil
}

func parseRow(s string) (core.Row, error) {
	switch strings.ToLower(s) {
	case "nohelp", "none":
		return core.RowNoHelp, nil
	case "bound":
		return core.RowBound, nil
	case "size", "n":
		return core.RowSize, nil
	case "leader", "leaders":
		return core.RowLeader, nil
	default:
		return 0, fmt.Errorf("unknown help row %q (want nohelp, bound, size, or leader)", s)
	}
}

func lookupFunc(name string) (funcs.Func, error) {
	for _, f := range funcs.Catalog() {
		if strings.EqualFold(f.Name, name) {
			return f, nil
		}
	}
	return funcs.Func{}, fmt.Errorf("unknown function %q; catalog: %s", name, catalogNames())
}

func catalogNames() string {
	names := make([]string, 0)
	for _, f := range funcs.Catalog() {
		names = append(names, f.Name)
	}
	return strings.Join(names, ", ")
}

func parseInputs(s string, n int, binary bool) ([]model.Input, error) {
	if s == "" {
		if binary {
			return anonnet.Inputs(alternating(n)...), nil
		}
		return anonnet.Inputs(linear(n)...), nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("%d values for %d agents", len(parts), n)
	}
	vals := make([]float64, n)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("value %d: %v", i, err)
		}
		if binary && v != 0 && v != 1 {
			return nil, fmt.Errorf("value %d is %v; this model's reference algorithms take binary inputs (0 or 1)", i, v)
		}
		vals[i] = v
	}
	return anonnet.Inputs(vals...), nil
}

func linear(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func alternating(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i % 2)
	}
	return out
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// parseGraph builds the schedule from a spec like "ring:8"; the bool result
// says whether the schedule is static.
func parseGraph(spec string, seed int64) (dynamic.Schedule, bool, error) {
	name, arg, _ := strings.Cut(spec, ":")
	num := func() (int, error) {
		v, err := strconv.Atoi(arg)
		if err != nil || v < 1 {
			return 0, fmt.Errorf("graph spec %q: bad size %q", spec, arg)
		}
		return v, nil
	}
	pair := func() (int, int, error) {
		a, b, ok := strings.Cut(arg, ".")
		if !ok {
			return 0, 0, fmt.Errorf("graph spec %q: want two dot-separated numbers", spec)
		}
		x, err1 := strconv.Atoi(a)
		y, err2 := strconv.Atoi(b)
		if err1 != nil || err2 != nil {
			return 0, 0, fmt.Errorf("graph spec %q: bad numbers", spec)
		}
		return x, y, nil
	}
	rng := rand.New(rand.NewSource(seed))
	switch strings.ToLower(name) {
	case "ring":
		n, err := num()
		if err != nil {
			return nil, false, err
		}
		return dynamic.NewStatic(graph.Ring(n)), true, nil
	case "bidiring":
		n, err := num()
		if err != nil {
			return nil, false, err
		}
		return dynamic.NewStatic(graph.BidirectionalRing(n)), true, nil
	case "star":
		n, err := num()
		if err != nil {
			return nil, false, err
		}
		return dynamic.NewStatic(graph.Star(n)), true, nil
	case "path":
		n, err := num()
		if err != nil {
			return nil, false, err
		}
		return dynamic.NewStatic(graph.Path(n)), true, nil
	case "complete":
		n, err := num()
		if err != nil {
			return nil, false, err
		}
		return dynamic.NewStatic(graph.Complete(n)), true, nil
	case "hypercube":
		d, err := num()
		if err != nil {
			return nil, false, err
		}
		return dynamic.NewStatic(graph.Hypercube(d)), true, nil
	case "debruijn":
		k, d, err := pair()
		if err != nil {
			return nil, false, err
		}
		return dynamic.NewStatic(graph.DeBruijn(k, d)), true, nil
	case "torus":
		r, c, err := pair()
		if err != nil {
			return nil, false, err
		}
		return dynamic.NewStatic(graph.Torus(r, c)), true, nil
	case "random":
		n, err := num()
		if err != nil {
			return nil, false, err
		}
		return dynamic.NewStatic(graph.RandomStronglyConnected(n, n, rng)), true, nil
	case "randomsym":
		n, err := num()
		if err != nil {
			return nil, false, err
		}
		return dynamic.NewStatic(graph.RandomSymmetricConnected(n, n, rng)), true, nil
	case "geometric":
		n, err := num()
		if err != nil {
			return nil, false, err
		}
		return dynamic.NewStatic(graph.RandomGeometric(n, 0.35, rng)), true, nil
	case "splitring":
		n, err := num()
		if err != nil {
			return nil, false, err
		}
		return &dynamic.SplitRing{Vertices: n}, false, nil
	case "randomdyn":
		n, err := num()
		if err != nil {
			return nil, false, err
		}
		return &dynamic.RandomConnected{Vertices: n, ExtraEdges: 2, Seed: seed}, false, nil
	case "pairwise":
		n, err := num()
		if err != nil {
			return nil, false, err
		}
		return &dynamic.Pairwise{Vertices: n, Seed: seed}, false, nil
	default:
		return nil, false, fmt.Errorf("unknown graph %q", name)
	}
}
