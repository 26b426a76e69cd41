// Command benchreport regenerates BENCH_engine.json, the committed record
// of the engine Push-Sum benchmark (the same workload as the
// BenchmarkEngineRing family in bench_test.go): 50 steady-state rounds
// of Push-Sum average on a bidirectional ring, for each engine (sequential,
// vectorized, parallel-vectorized) at each size n ∈ {16, 64, 256, 1024}. Each engine is constructed and warmed up
// outside the timed region, so an op is exactly 50 rounds of the warm
// round loop — the per-round engine overhead the family exists to isolate
// — and the allocs_per_op / bytes_per_op columns record what that loop
// allocates (zero, for both vectorized kernels). Timings come from
// testing.Benchmark, so iteration counts auto-scale to the benchtime.
//
// Usage:
//
//	go run ./cmd/benchreport [-o BENCH_engine.json] [-benchtime 1s] [-scale]
//
// -scale appends the large-n sweep: the same engines at
// n ∈ {10⁴, 10⁵, 10⁶} on ring, torus, and random strongly-connected
// topologies, 10 steady-state rounds per op. That is the workload behind
// the README perf table and the parallel kernel's speedup claim; the
// parvec_vs_vec column is only meaningful when gomaxprocs in the report
// header is ≥ 2 (on one core the parallel kernel pays its barrier overhead
// without any parallelism to show for it).
//
// The report also derives vec-vs-sequential, parvec-vs-sequential, and
// parvec-vs-vec speedups per (topology, size); the
// headline numbers are the n=1024 vec/seq ratio and — with -scale on a
// multicore machine — the n=10⁵ parvec/vec ratio.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"anonnet/internal/algorithms/pushsum"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/graph"
	"anonnet/internal/model"
	"anonnet/internal/topology"
)

// benchRounds mirrors ringBenchRounds in bench_test.go so the committed
// numbers and the `go test -bench=EngineRing` numbers are comparable.
const benchRounds = 50

// scaleRounds is the -scale sweep's rounds per op: shorter than the core
// sweep because a single round at n=10⁶ is already milliseconds of work.
const scaleRounds = 10

// warmupRounds grows every reusable buffer before the timer starts.
const warmupRounds = 3

type measurement struct {
	Engine string `json:"engine"`
	// Topology is the network family the workload runs on ("ring" for the
	// core sweep; -scale adds "torus" and "random").
	Topology string `json:"topology"`
	N        int    `json:"n"`
	// Workers is the parallel kernel's worker count (0 for the
	// single-threaded engines; parvec uses one worker per core).
	Workers     int     `json:"workers,omitempty"`
	Rounds      int     `json:"rounds"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	MsPerOp     float64 `json:"ms_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// RoundsPerSec is the steady-state round throughput implied by
	// NsPerOp (an op is benchRounds rounds).
	RoundsPerSec float64 `json:"rounds_per_sec"`
	// TopologyBuilds / TopologyBuildNs report the CSR snapshot builds the
	// runner performed over its whole life (construction through the last
	// timed round). The workload is static, so exactly one build should
	// appear however long the timed loop ran — nonzero build time with
	// builds == 1 is the cache doing its job.
	TopologyBuilds  int64 `json:"topology_builds"`
	TopologyBuildNs int64 `json:"topology_build_ns"`
}

type speedup struct {
	Topology    string  `json:"topology"`
	N           int     `json:"n"`
	VecVsSeq    float64 `json:"vec_vs_seq,omitempty"`
	ParVecVsSeq float64 `json:"parvec_vs_seq,omitempty"`
	ParVecVsVec float64 `json:"parvec_vs_vec,omitempty"`
}

type report struct {
	Workload     string        `json:"workload"`
	GoVersion    string        `json:"go_version"`
	GOMAXPROCS   int           `json:"gomaxprocs"`
	GeneratedAt  string        `json:"generated_at"`
	Benchtime    string        `json:"benchtime"`
	Measurements []measurement `json:"measurements"`
	Speedups     []speedup     `json:"speedups"`
}

// topoStatser is the promoted topology.BuildStats accessor every runner
// inherits from the engine core.
type topoStatser interface {
	TopologyStats() topology.BuildStats
}

// buildGraph constructs the named topology at size n. Torus picks the
// most-square rows×cols factorization of n; random is a seeded
// strongly-connected digraph with n/8 extra arcs over the Hamiltonian
// cycle.
func buildGraph(topo string, n int) *graph.Graph {
	switch topo {
	case "ring":
		return graph.BidirectionalRing(n)
	case "torus":
		rows := int(math.Sqrt(float64(n)))
		for n%rows != 0 {
			rows--
		}
		return graph.Torus(rows, n/rows)
	case "random":
		return graph.RandomStronglyConnected(n, n/8, rand.New(rand.NewSource(1)))
	default:
		panic("benchreport: unknown topology " + topo)
	}
}

func benchOnce(mk func(engine.Config) (engine.Runner, error), topo string, n, rounds int) (testing.BenchmarkResult, topology.BuildStats) {
	inputs := make([]model.Input, n)
	for j := range inputs {
		inputs[j] = model.Input{Value: float64(j % 31)}
	}
	g := buildGraph(topo, n)
	var stats topology.BuildStats
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		r, err := mk(engine.Config{
			Schedule: dynamic.NewStatic(g),
			Kind:     model.OutdegreeAware,
			Inputs:   inputs,
			Factory:  pushsum.NewAverageFactory(),
			Seed:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		for t := 0; t < warmupRounds; t++ {
			if err := r.Step(); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for t := 0; t < rounds; t++ {
				if err := r.Step(); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		// testing.Benchmark re-invokes the closure while scaling b.N; the
		// last (longest) invocation's stats win.
		if ts, ok := r.(topoStatser); ok {
			stats = ts.TopologyStats()
		}
	})
	return res, stats
}

type engineCase struct {
	name string
	mk   func(engine.Config) (engine.Runner, error)
}

func main() {
	out := flag.String("o", "BENCH_engine.json", "output path for the JSON report")
	benchtime := flag.String("benchtime", "1s", "per-case benchtime (testing -benchtime syntax)")
	scale := flag.Bool("scale", false, "append the large-n sweep (every engine at n=10⁴..10⁶ on ring/torus/random)")
	testing.Init()
	flag.Parse()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}

	parvecWorkers := runtime.GOMAXPROCS(0)
	engines := []engineCase{
		{"seq", func(cfg engine.Config) (engine.Runner, error) { return engine.New(cfg) }},
		{"vec", func(cfg engine.Config) (engine.Runner, error) { return engine.NewVectorized(cfg) }},
		{"parvec", func(cfg engine.Config) (engine.Runner, error) { return engine.NewParallelVec(cfg, 0) }},
	}
	sizes := []int{16, 64, 256, 1024}

	rep := report{
		Workload:    fmt.Sprintf("pushsum average, %d steady-state rounds per op on the core ring sweep and %d on the -scale sweep (construction and warm-up untimed), outdegree-aware", benchRounds, scaleRounds),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Benchtime:   *benchtime,
	}
	// perOp[topology][engine][n] = ns/op, feeding the speedup table.
	perOp := map[string]map[string]map[int]int64{}
	runCase := func(eng engineCase, topoName string, n, rounds int) {
		res, topo := benchOnce(eng.mk, topoName, n, rounds)
		ns := res.NsPerOp()
		if perOp[topoName] == nil {
			perOp[topoName] = map[string]map[int]int64{}
		}
		if perOp[topoName][eng.name] == nil {
			perOp[topoName][eng.name] = map[int]int64{}
		}
		perOp[topoName][eng.name][n] = ns
		rps := 0.0
		if ns > 0 {
			rps = math.Round(float64(rounds)*1e9/float64(ns)*10) / 10
		}
		workers := 0
		if eng.name == "parvec" {
			workers = parvecWorkers
		}
		rep.Measurements = append(rep.Measurements, measurement{
			Engine:          eng.name,
			Topology:        topoName,
			N:               n,
			Workers:         workers,
			Rounds:          rounds,
			Iterations:      res.N,
			NsPerOp:         ns,
			MsPerOp:         float64(ns) / 1e6,
			AllocsPerOp:     res.AllocsPerOp(),
			BytesPerOp:      res.AllocedBytesPerOp(),
			RoundsPerSec:    rps,
			TopologyBuilds:  topo.Builds,
			TopologyBuildNs: topo.BuildNanos,
		})
		fmt.Fprintf(os.Stderr, "%-6s %-6s n=%-8d %12d ns/op %8d allocs/op %10.0f rounds/s  %d builds (%d ns)  (%d iters)\n",
			eng.name, topoName, n, ns, res.AllocsPerOp(), rps, topo.Builds, topo.BuildNanos, res.N)
	}
	for _, eng := range engines {
		for _, n := range sizes {
			runCase(eng, "ring", n, benchRounds)
		}
	}
	scaleSizes := []int{10_000, 100_000, 1_000_000}
	scaleTopos := []string{"ring", "torus", "random"}
	if *scale {
		for _, topoName := range scaleTopos {
			for _, n := range scaleSizes {
				for _, eng := range engines {
					runCase(eng, topoName, n, scaleRounds)
				}
			}
		}
	}
	addSpeedup := func(topoName string, n int) {
		ops := perOp[topoName]
		rep.Speedups = append(rep.Speedups, speedup{
			Topology:    topoName,
			N:           n,
			VecVsSeq:    ratio(ops["seq"][n], ops["vec"][n]),
			ParVecVsSeq: ratio(ops["seq"][n], ops["parvec"][n]),
			ParVecVsVec: ratio(ops["vec"][n], ops["parvec"][n]),
		})
	}
	for _, n := range sizes {
		addSpeedup("ring", n)
	}
	if *scale {
		for _, topoName := range scaleTopos {
			for _, n := range scaleSizes {
				addSpeedup(topoName, n)
			}
		}
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

// ratio returns base/target rounded to two decimals (how many times faster
// target is than base).
func ratio(base, target int64) float64 {
	if target == 0 {
		return 0
	}
	return math.Round(float64(base)/float64(target)*100) / 100
}
