// Command anonsim runs one algorithm on one anonymous network and prints
// the output trace — the interactive front end to the library. Its flags
// spell a job.Spec, which is compiled, built and run through package job
// exactly as an anonnetd job is, so a spec traces the same here as in the
// service.
//
// Usage examples:
//
//	anonsim -graph ring:8 -kind od -func average -values 3,1,4,1,5,9,2,6
//	anonsim -graph bidiring:6 -kind sym -func max -values 1,7,3,2,5,4
//	anonsim -graph ring:6 -kind op -func average
//	anonsim -graph splitring:6 -dynamic -kind od -func average -row bound -bound 8 -values 1,2,2,1,2,2
//	anonsim -graph star:5 -kind od -func sum -row leader -leaders 0 -values 9,4,4,4,4
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"anonnet/internal/engine"
	"anonnet/internal/faults"
	"anonnet/internal/job"
	"anonnet/internal/model"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "anonsim:", err)
		os.Exit(1)
	}
}

// run parses args into a job spec, compiles, builds and runs it, and
// writes the header, the sampled rounds and the final summary to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("anonsim", flag.ContinueOnError)
	var (
		graphFlag  = fs.String("graph", "ring:6", "network: ring:N, bidiring:N, star:N, path:N, complete:N, hypercube:D, debruijn:K.D, torus:R.C, random:N, randomsym:N, geometric:N, splitring:N, randomdyn:N, pairwise:N")
		kindFlag   = fs.String("kind", "od", "communication model: "+strings.Join(model.Names(), ", "))
		funcFlag   = fs.String("func", "average", "function: one of the catalog names (average, max, min, sum, count, mode, median, …)")
		valuesFlag = fs.String("values", "", "comma-separated input values (default 1..n)")
		rowFlag    = fs.String("row", "nohelp", "centralized help: nohelp, bound, size, leader")
		boundN     = fs.Int("bound", 0, "known bound N ≥ n (row=bound)")
		leadersArg = fs.String("leaders", "", "comma-separated leader agent indices (row=leader)")
		dynFlag    = fs.Bool("dynamic", false, "treat the setting as dynamic (Table 2)")
		rounds     = fs.Int("rounds", 2000, "round budget; the run always lasts all of it")
		every      = fs.Int("every", 0, "print outputs every k rounds (0: only the final)")
		seed       = fs.Int64("seed", 1, "RNG seed")
		engineFlag = fs.String("engine", "", "round engine: "+engine.NamesList()+" (vec runs on seq, with identical traces, when the algorithm is not vectorizable)")
		parallel   = fs.Int("parallel", 0, "degree of parallelism: shard count for -engine shard (0: one per core), worker count for -engine vec (0: single-threaded kernel)")
		dot        = fs.Bool("dot", false, "print the round-1 network in Graphviz dot format and exit")

		dropP    = fs.Float64("drop", 0, "fault: per-message drop probability")
		dupP     = fs.Float64("dup", 0, "fault: per-message duplication probability")
		delayP   = fs.Float64("delayp", 0, "fault: per-message delay probability")
		delayMax = fs.Int("delay", 0, "fault: maximum delay in rounds (with -delayp; 0 means 1)")
		stallP   = fs.Float64("stall", 0, "fault: per-agent per-round stall probability")
		crashP   = fs.Float64("crash", 0, "fault: per-agent per-round crash-restart probability")
		churnP   = fs.Float64("churn", 0, "fault: per-link per-window removal probability")
		guard    = fs.String("guard", "repair", "churn connectivity guard: off, reject, repair")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rounds < 1 {
		// A spec's zero max_rounds and patience mean "default", not zero.
		return fmt.Errorf("-rounds %d: want ≥ 1", *rounds)
	}
	g, err := parseGraph(*graphFlag)
	if err != nil {
		return err
	}
	values, err := parseList(*valuesFlag, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
	if err != nil {
		return fmt.Errorf("-values: %w", err)
	}
	leaders, err := parseList(*leadersArg, strconv.Atoi)
	if err != nil {
		return fmt.Errorf("-leaders: %w", err)
	}
	c, err := job.Compile(job.Spec{
		Graph:    g,
		Kind:     *kindFlag,
		Row:      *rowFlag,
		BoundN:   *boundN,
		Leaders:  leaders,
		Function: *funcFlag,
		Values:   values,
		Seed:     *seed,
		// Patience equal to the budget: the run never stops early, so the
		// trace covers every round asked for.
		MaxRounds: *rounds,
		Patience:  *rounds,
		Dynamic:   *dynFlag,
		Engine:    *engineFlag,
		Shards:    *parallel,
		Faults: &faults.Plan{
			Drop: *dropP, Dup: *dupP, DelayP: *delayP, DelayMax: *delayMax,
			Stall: *stallP, Crash: *crashP,
			Churn: &faults.ChurnPlan{Drop: *churnP, Guard: *guard},
		},
	})
	if err != nil {
		return err
	}
	b, err := c.Build(nil)
	if err != nil {
		return err
	}
	defer b.Release()
	if *dot {
		fmt.Fprint(out, b.Schedule.At(1).DOT(*graphFlag, nil))
		return nil
	}

	st := c.Setting
	fmt.Fprintf(out, "network: %s (n=%d, %s)\n", *graphFlag, c.N, map[bool]string{true: "static", false: "dynamic"}[st.Static])
	fmt.Fprintf(out, "model:   %v, help: %v\n", st.Kind, st.Row)
	fmt.Fprintf(out, "cell:    %v\n", st.Cell())
	fmt.Fprintf(out, "func:    %s (%v)\n", c.Func.Name, c.Func.Class)
	if c.Spec.Faults != nil {
		// A canonical plan is floats, ints and strings: it always encodes.
		plan, _ := json.Marshal(c.Spec.Faults)
		fmt.Fprintf(out, "faults:  %s\n", plan)
	}
	fmt.Fprintf(out, "true value: %v\n\n", b.Expected)

	// The outputs before round 1 are the fresh agents' outputs; a round
	// whose outputs print differently from the round before is a change.
	initial := make([]model.Value, c.N)
	for i, in := range b.Inputs {
		initial[i] = c.Factory(in).Output()
	}
	prev, lastChange := fmt.Sprint(initial), 0
	obs := func(round int, outs []model.Value) {
		if cur := fmt.Sprint(outs); cur != prev {
			prev, lastChange = cur, round
		}
		if *every > 0 && round%*every == 0 {
			fmt.Fprintf(out, "round %4d: %v\n", round, outs)
		}
	}
	res, err := job.RunCheckpointed(context.Background(), b, obs, job.CheckpointConfig{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "final outputs after %d rounds: %v\n", res.Rounds, res.Outputs)
	fmt.Fprintf(out, "outputs last changed at round %d\n", lastChange)
	fmt.Fprintf(out, "communication: %d messages over %d rounds (%.1f per agent per round)\n",
		res.Messages, res.Rounds, float64(res.Messages)/float64(res.Rounds)/float64(c.N))
	if f := res.Faults; f != nil {
		fmt.Fprintf(out, "faults injected: %d dropped, %d duplicated, %d delayed\n", f.Dropped, f.Duplicated, f.Delayed)
	}
	return nil
}

// parseGraph spells a -graph value as a job.GraphSpec: hypercube:D sets
// the dimension, debruijn:K.D the alphabet and dimension, torus:R.C the
// rows and columns, and every other builder takes its size N. Builder
// names and ranges are job.Compile's to check.
func parseGraph(s string) (job.GraphSpec, error) {
	name, arg, _ := strings.Cut(s, ":")
	g := job.GraphSpec{Builder: name}
	var err error
	switch strings.ToLower(name) {
	case "hypercube":
		g.D, err = strconv.Atoi(arg)
	case "debruijn":
		g.K, g.D, err = parsePair(arg)
	case "torus":
		g.Rows, g.Cols, err = parsePair(arg)
	default:
		g.N, err = strconv.Atoi(arg)
	}
	if err != nil {
		return job.GraphSpec{}, fmt.Errorf("graph spec %q: %w", s, err)
	}
	return g, nil
}

// parsePair parses the "a.b" argument of the two-dimensional builders.
func parsePair(s string) (int, int, error) {
	a, b, ok := strings.Cut(s, ".")
	if !ok {
		return 0, 0, fmt.Errorf("want two dot-separated numbers, got %q", s)
	}
	x, err := strconv.Atoi(a)
	if err != nil {
		return 0, 0, err
	}
	y, err := strconv.Atoi(b)
	return x, y, err
}

// parseList parses a comma-separated flag value; "" is the empty list.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]T, len(parts))
	for i, p := range parts {
		v, err := parse(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
