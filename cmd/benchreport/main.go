// Command benchreport regenerates BENCH_engine.json, the committed record
// of the engine Push-Sum benchmark (the same workload as the
// BenchmarkEngineSharded family in bench_test.go): 50 steady-state rounds
// of Push-Sum average on a bidirectional ring, for each engine (sequential,
// sharded, vectorized, parallel-vectorized) at each size
// n ∈ {16, 64, 256, 1024}. Each engine is constructed and warmed up
// outside the timed region, so an op is exactly 50 rounds of the warm
// round loop — the per-round engine overhead the family exists to isolate
// — and the allocs_per_op / bytes_per_op columns record what that loop
// allocates (zero, for both vectorized kernels). Timings come from
// testing.Benchmark, so iteration counts auto-scale to the benchtime.
//
// Usage:
//
//	go run ./cmd/benchreport [-o BENCH_engine.json] [-benchtime 1s] [-scale] [-sweep]
//
// -scale appends the large-n sweep: seq, vec, and parvec at
// n ∈ {10⁴, 10⁵, 10⁶} on ring, torus, and random strongly-connected
// topologies, 10 steady-state rounds per op. That is the workload behind
// the README perf table and the parallel kernel's speedup claim; the
// parvec_vs_vec column is only meaningful when gomaxprocs in the report
// header is ≥ 2 (on one core the parallel kernel pays its barrier overhead
// without any parallelism to show for it).
//
// -sweep appends the service sweep section: 64-job same-graph batches
// through the anonnetd service layer at n ∈ {10⁴, 10⁵, 10⁶}, timed cold
// (topology cache and dedup off), warm (one snapshot shared across a
// 64-seed sweep), and deduped (64 identical specs, one execution). The
// warm and dedup rows refuse to report more than one topology build —
// the generator exits nonzero if the counter disagrees.
//
// The report also derives shard-vs-sequential, vec-vs-sequential,
// parvec-vs-sequential, and parvec-vs-vec speedups per (topology, size); the
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
	"anonnet/internal/job"
	"anonnet/internal/model"
	"anonnet/internal/service"
	"anonnet/internal/topology"
)

// benchRounds mirrors shardedBenchRounds in bench_test.go so the committed
// numbers and the `go test -bench=EngineSharded` numbers are comparable.
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
	ShardVsSeq  float64 `json:"shard_vs_seq,omitempty"`
	VecVsSeq    float64 `json:"vec_vs_seq,omitempty"`
	ParVecVsSeq float64 `json:"parvec_vs_seq,omitempty"`
	ParVecVsVec float64 `json:"parvec_vs_vec,omitempty"`
}

// sweepRow is one mode of the -sweep service benchmark: a 64-job
// same-graph batch through the anonnetd service layer (DESIGN §5h).
// "cold" disables the topology cache and dedup, "warm" shares one
// snapshot across a 64-seed sweep, "dedup" submits 64 identical specs
// that coalesce into one execution. TopoBuilds is counter-asserted by
// the generator: warm and dedup rows refuse to report more than one.
type sweepRow struct {
	Mode     string `json:"mode"`
	Topology string `json:"topology"`
	N        int    `json:"n"`
	Jobs     int    `json:"jobs"`
	// MsTotal is the wall-clock for the whole batch, submit through the
	// last terminal state.
	MsTotal        float64 `json:"ms_total"`
	JobsPerSec     float64 `json:"jobs_per_sec"`
	TopoBuilds     int64   `json:"topo_builds"`
	DedupCoalesced int64   `json:"dedup_coalesced,omitempty"`
	// AffinityHitRate is AffinityHits/(AffinityHits+AffinityMisses) over
	// the batch — how often a worker's consecutive jobs shared a snapshot.
	AffinityHitRate float64 `json:"affinity_hit_rate,omitempty"`
	SpeedupVsCold   float64 `json:"speedup_vs_cold,omitempty"`
}

type report struct {
	Workload     string        `json:"workload"`
	GoVersion    string        `json:"go_version"`
	GOMAXPROCS   int           `json:"gomaxprocs"`
	GeneratedAt  string        `json:"generated_at"`
	Benchtime    string        `json:"benchtime"`
	Measurements []measurement `json:"measurements"`
	Speedups     []speedup     `json:"speedups"`
	Sweep        []sweepRow    `json:"sweep,omitempty"`
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

// sweepJobs is the -sweep batch width: the 64-job same-graph sweep of the
// ISSUE-9 acceptance row.
const sweepJobs = 64

// sweepMember mirrors the BenchmarkServiceSweep workload in bench_test.go:
// broadcast gossip on a static ring, whose fingerprint is seed-independent,
// so the whole sweep shares one topology snapshot and the measurement is
// dominated by the submit path (graph build + validate + CSR), not rounds.
func sweepMember(n int, seed int64) job.Spec {
	return job.Spec{
		Graph:     job.GraphSpec{Builder: "ring", N: n},
		Kind:      "bc",
		Function:  "max",
		Seed:      seed,
		MaxRounds: 2,
		Patience:  2,
	}
}

// runSweepMode submits one 64-job batch and times it end to end (submit
// through the last terminal state). Direct wall-clock timing, not
// testing.Benchmark: the acceptance row is a single large batch, and the
// topology-build counter assertion needs exactly one batch to reason about.
func runSweepMode(mode string, n int) (sweepRow, error) {
	cfg := service.Config{QueueDepth: sweepJobs, CacheSize: -1, ProgressEvery: 1 << 30}
	if mode == "cold" {
		cfg.TopoCacheBytes = -1
		cfg.NoDedup = true
	}
	svc := service.New(cfg)
	defer svc.Close()

	specs := make([]job.Spec, sweepJobs)
	for j := range specs {
		seed := int64(j)
		if mode == "dedup" {
			seed = 0
		}
		specs[j] = sweepMember(n, seed)
	}
	start := time.Now()
	if _, err := svc.SubmitBatch(specs); err != nil {
		return sweepRow{}, fmt.Errorf("sweep %s n=%d: %w", mode, n, err)
	}
	for {
		st := svc.Stats()
		if st.Failed > 0 {
			return sweepRow{}, fmt.Errorf("sweep %s n=%d: %d jobs failed", mode, n, st.Failed)
		}
		if st.Completed+st.Canceled+st.CacheHits >= sweepJobs {
			break
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)

	st := svc.Stats()
	if mode != "cold" && st.TopoCacheMisses != 1 {
		return sweepRow{}, fmt.Errorf("sweep %s n=%d: %d topology builds, want exactly 1", mode, n, st.TopoCacheMisses)
	}
	builds := st.TopoCacheMisses
	if mode == "cold" {
		builds = sweepJobs // cache disabled: every compile builds its own snapshot
	}
	hitRate := 0.0
	if t := st.AffinityHits + st.AffinityMisses; t > 0 {
		hitRate = math.Round(float64(st.AffinityHits)/float64(t)*1000) / 1000
	}
	return sweepRow{
		Mode:            mode,
		Topology:        "ring",
		N:               n,
		Jobs:            sweepJobs,
		MsTotal:         math.Round(float64(elapsed.Microseconds())/100) / 10,
		JobsPerSec:      math.Round(sweepJobs/elapsed.Seconds()*10) / 10,
		TopoBuilds:      builds,
		DedupCoalesced:  st.DedupCoalesced,
		AffinityHitRate: hitRate,
	}, nil
}

func main() {
	out := flag.String("o", "BENCH_engine.json", "output path for the JSON report")
	benchtime := flag.String("benchtime", "1s", "per-case benchtime (testing -benchtime syntax)")
	scale := flag.Bool("scale", false, "append the large-n sweep (seq/vec/parvec at n=10⁴..10⁶ on ring/torus/random)")
	sweep := flag.Bool("sweep", false, "append the service sweep section (64-job same-graph batches, cold/warm/dedup, n=10⁴..10⁶)")
	testing.Init()
	flag.Parse()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}

	parvecWorkers := runtime.GOMAXPROCS(0)
	engines := []engineCase{
		{"seq", func(cfg engine.Config) (engine.Runner, error) { return engine.New(cfg) }},
		{"shard", func(cfg engine.Config) (engine.Runner, error) { return engine.NewSharded(cfg, 0) }},
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
					switch eng.name {
					case "seq", "vec", "parvec":
						runCase(eng, topoName, n, scaleRounds)
					}
				}
			}
		}
	}
	addSpeedup := func(topoName string, n int) {
		ops := perOp[topoName]
		rep.Speedups = append(rep.Speedups, speedup{
			Topology:    topoName,
			N:           n,
			ShardVsSeq:  ratio(ops["seq"][n], ops["shard"][n]),
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
	if *sweep {
		for _, n := range scaleSizes {
			var coldMs float64
			for _, mode := range []string{"cold", "warm", "dedup"} {
				row, err := runSweepMode(mode, n)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchreport:", err)
					os.Exit(1)
				}
				if mode == "cold" {
					coldMs = row.MsTotal
				} else if row.MsTotal > 0 {
					row.SpeedupVsCold = math.Round(coldMs/row.MsTotal*100) / 100
				}
				rep.Sweep = append(rep.Sweep, row)
				fmt.Fprintf(os.Stderr, "sweep %-5s n=%-8d %10.1f ms %8.1f jobs/s %3d builds  %5.2fx vs cold\n",
					row.Mode, row.N, row.MsTotal, row.JobsPerSec, row.TopoBuilds, row.SpeedupVsCold)
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
