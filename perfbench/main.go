// Command perfbench is anonnet's end-to-end benchmark. It boots the
// anonnetd daemon built from the same checkout on a loopback port, with a
// durable data directory as an operator would run it, drives one sweep
// workload through the public HTTP API for a fixed time, checks every
// result against its known answer, and prints one JSON object of metrics
// as the last line of standard output.
//
// Run it from the checkout root through run.sh, which builds the daemon and
// this driver under .bench_build/:
//
//	bash perfbench/run.sh --workload warm --seed 1 --seconds 20 --trace 0
//
// The load is a closed loop with one client: it submits a 64-job sweep
// (POST /v1/batch), follows every member to its result, and only then
// submits the next. With --trace 0 it reports what the client sees:
// per-job latency, throughput, and the daemon's set-up time. With --trace 1
// it splits the same job path into layers. Every layer figure comes from
// public calls: the client's timing of each HTTP call, the
// submitted/started/finished timestamps the API returns for each job, and
// the /metrics and /debug/vars counters. Nothing inside the daemon is
// instrumented for the benchmark.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Every job is the member shape of the repository's recorded sweep rows
// (BenchmarkServiceSweep at n=10⁴): broadcast gossip computing max on a
// unidirectional ring with the default inputs 1..n, stopped after two
// rounds. That makes the answer exact without rebuilding the graph: after
// r rounds agent i holds the largest input among agents i-r..i, which is
// n for the first r agents and i+1 for the rest.
const (
	members    = 64     // jobs per sweep request
	agents     = 10_000 // n of the warm and dedup rings
	rounds     = 2      // max_rounds and patience of every job
	coldSpan   = 4096   // cold ring sizes are distinct, in agents±coldSpan/2
	setupBoots = 15     // daemon boots timed for setup_s; the last is measured
)

// workloads builds the body of one sweep request and the ring size of each
// member, in the order the batch lists its jobs. The three differ only in
// what repeats across members: warm shares one graph, dedup one spec, and
// cold nothing.
var workloads = map[string]func(g *generator) (any, []int){
	// cold: every member is a ring of a size the daemon has not seen, so
	// every compile builds its own graph and snapshot and nothing is
	// deduplicated; the topology cache is bypassed.
	"cold": func(g *generator) (any, []int) {
		sizes := make([]int, members)
		for i := range sizes {
			sizes[i] = g.coldSize()
		}
		return batch{Template: member(agents, 0), Grid: &grid{N: sizes}}, sizes
	},
	// warm: a seed sweep over one ring, the docs' template+grid form. The
	// ring's fingerprint ignores the seed, so every compile takes its graph
	// and CSR snapshot from the topology cache, while each member is still
	// a distinct spec that runs its own execution.
	"warm": func(g *generator) (any, []int) {
		seeds := make([]int64, members)
		for i := range seeds {
			seeds[i] = g.nextSeed()
		}
		return batch{Template: member(agents, 0), Grid: &grid{Seeds: seeds}}, repeat(agents)
	},
	// dedup: all members are one spec, so single-flight dedup runs it once
	// and the other members pay only the job path around the engine.
	"dedup": func(g *generator) (any, []int) {
		one := member(agents, g.nextSeed())
		specs := make([]spec, members)
		for i := range specs {
			specs[i] = *one
		}
		return batch{Specs: specs}, repeat(agents)
	},
}

func repeat(n int) []int {
	out := make([]int, members)
	for i := range out {
		out[i] = n
	}
	return out
}

type graphSpec struct {
	Builder string `json:"builder"`
	N       int    `json:"n"`
}

// spec is the public job-spec JSON shape. Values are left out, so every
// job runs on the default inputs 1..n.
type spec struct {
	Graph     graphSpec `json:"graph"`
	Kind      string    `json:"kind"`
	Function  string    `json:"function"`
	Seed      int64     `json:"seed,omitempty"`
	MaxRounds int       `json:"max_rounds"`
	Patience  int       `json:"patience"`
}

type grid struct {
	N     []int   `json:"n,omitempty"`
	Seeds []int64 `json:"seeds,omitempty"`
}

// batch is the POST /v1/batch body: an explicit list or a template+grid.
type batch struct {
	Specs    []spec `json:"specs,omitempty"`
	Template *spec  `json:"template,omitempty"`
	Grid     *grid  `json:"grid,omitempty"`
}

// generator derives every input of a run from the run's seed.
type generator struct {
	rng   *rand.Rand
	seed  int64 // last job seed handed out
	sizes []int // unused cold ring sizes
}

func newGenerator(seed int64) *generator {
	rng := rand.New(rand.NewSource(seed))
	return &generator{rng: rng, seed: rng.Int63n(1 << 40)}
}

// member returns the job spec of one sweep member on the n-ring.
func member(n int, seed int64) *spec {
	return &spec{
		Graph:     graphSpec{Builder: "ring", N: n},
		Kind:      "bc",
		Function:  "max",
		Seed:      seed,
		MaxRounds: rounds,
		Patience:  rounds,
	}
}

func (g *generator) nextSeed() int64 {
	g.seed++
	return g.seed
}

// coldSize returns a ring size not used before in this run. A run that
// outlasts coldSpan cold jobs gets sizes again, and their compiles may hit
// the topology cache; the trace's topo_cache_hit_ratio shows it.
func (g *generator) coldSize() int {
	if len(g.sizes) == 0 {
		g.sizes = g.rng.Perm(coldSpan)
	}
	n := agents - coldSpan/2 + g.sizes[0]
	g.sizes = g.sizes[1:]
	return n
}

func main() {
	var (
		daemonBin = flag.String("daemon", "", "anonnetd binary built from this checkout")
		workdir   = flag.String("workdir", ".bench_build", "directory for the daemons' data and logs")
		workload  = flag.String("workload", "", "cold, warm or dedup")
		seed      = flag.Int64("seed", 1, "seed every input is derived from")
		seconds   = flag.Int("seconds", 10, "measured seconds")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	)
	flag.Parse()
	work, ok := workloads[*workload]
	if !ok || *daemonBin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -daemon PATH --workload cold|warm|dedup --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, *daemonBin, *workdir, work, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run boots the daemon setupBoots times on fresh data directories, timing
// each boot up to its first ready answer, and keeps the last one. It runs
// one unmeasured sweep, which fills the topology cache and finishes lazy
// start-up work, then measures sweeps for the given time.
func run(ctx context.Context, bin, workdir string, work func(*generator) (any, []int), seed int64, measure time.Duration, trace bool) (*report, error) {
	dir, err := os.MkdirTemp(workdir, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	gen := newGenerator(seed)

	var (
		d     *daemon
		setup []float64
	)
	for i := 0; i < setupBoots; i++ {
		start := time.Now()
		d, err = startDaemon(ctx, bin, filepath.Join(dir, fmt.Sprintf("boot%d", i)))
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		if i < setupBoots-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer d.stop()

	warmStart := time.Now()
	body, sizes := work(gen)
	s, err := d.client.sweep(ctx, body, sizes)
	if err != nil {
		return nil, d.withLog(err)
	}
	if s.failed > 0 {
		return nil, d.withLog(fmt.Errorf("warm-up sweep: %d of %d jobs failed", s.failed, len(s.jobs)))
	}
	warmup := time.Since(warmStart)

	before, err := d.client.counters(ctx)
	if err != nil {
		return nil, d.withLog(err)
	}
	var t tally
	begin := time.Now()
	for time.Since(begin) < measure {
		body, sizes := work(gen)
		s, err := d.client.sweep(ctx, body, sizes)
		if err != nil {
			return nil, d.withLog(err)
		}
		t.add(s)
	}
	elapsed := time.Since(begin).Seconds()
	after, err := d.client.counters(ctx)
	if err != nil {
		return nil, d.withLog(err)
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	rep := &report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if !trace {
		rep.Metrics["job_latency_ms"] = metric{quantile(t.latency, 0.5), "ms"}
		rep.Metrics["job_latency_p90_ms"] = metric{quantile(t.latency, 0.9), "ms"}
		rep.Metrics["jobs_per_s"] = metric{float64(t.attempted-t.failed) / elapsed, "1/s"}
		rep.Metrics["setup_s"] = metric{quantile(setup, 0.5), "s"}
		return rep, nil
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	perJob := func(name string) float64 { return delta(name) / float64(t.attempted) }
	rep.Metrics["warmup_ms"] = metric{ms(warmup), "ms"}
	rep.Metrics["admit_ms"] = metric{quantile(t.admit, 0.5), "ms"}
	rep.Metrics["queue_ms"] = metric{quantile(t.queue, 0.5), "ms"}
	rep.Metrics["run_ms"] = metric{quantile(t.run, 0.5), "ms"}
	rep.Metrics["notify_ms"] = metric{quantile(t.notify, 0.5), "ms"}
	rep.Metrics["fetch_ms"] = metric{quantile(t.fetch, 0.5), "ms"}
	rep.Metrics["topo_cache_hit_ratio"] = metric{ratio(delta("anonnetd_topo_cache_hits_total"), delta("anonnetd_topo_cache_misses_total")), "ratio"}
	rep.Metrics["dedup_per_job"] = metric{perJob("anonnetd_dedup_coalesced_total"), "count/job"}
	rep.Metrics["store_records_per_job"] = metric{perJob("anonnetd_store_records"), "count/job"}
	rep.Metrics["store_bytes_per_job"] = metric{perJob("anonnetd_store_log_bytes"), "B/job"}
	rep.Metrics["response_bytes_per_job"] = metric{float64(t.bytes) / float64(t.attempted), "B/job"}
	rep.Metrics["alloc_bytes_per_job"] = metric{perJob("memstats.TotalAlloc"), "B/job"}
	rep.Metrics["gc_per_job"] = metric{perJob("memstats.NumGC"), "count/job"}
	rep.Metrics["heap_mb"] = metric{after["memstats.HeapAlloc"] / (1 << 20), "MB"}
	return rep, nil
}

// ratio returns hits/(hits+misses), or 0 when there were no lookups.
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// tally accumulates the measured sweeps. Times are in milliseconds; admit
// is each sweep's POST round trip shared among its members.
type tally struct {
	latency, admit, queue, run, notify, fetch []float64
	attempted, failed                         int
	bytes                                     int64
}

func (t *tally) add(s sweepResult) {
	t.admit = append(t.admit, ms(s.admit)/float64(len(s.jobs)))
	t.attempted += len(s.jobs)
	t.failed += s.failed
	t.bytes += s.bytes
	for _, j := range s.jobs {
		if !j.ok {
			continue
		}
		t.latency = append(t.latency, ms(j.latency))
		t.queue = append(t.queue, ms(j.queue))
		t.run = append(t.run, ms(j.run))
		t.notify = append(t.notify, ms(j.notify))
		t.fetch = append(t.fetch, ms(j.fetch))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// daemon is one anonnetd process serving on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	logPath string
	client  *client
	exited  chan struct{}
	waitErr error
	stopped bool
}

// startDaemon boots anonnetd on a free loopback port with a fresh durable
// data directory under dir and waits until it reports ready.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "anonnetd.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	// The client follows each job's stream only for its terminal event;
	// -every keeps per-round progress events off the wire.
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", filepath.Join(dir, "data"),
		"-every", "1000000", "-grace", "5s")
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	cmd.SysProcAttr = procAttr()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting anonnetd: %w", err)
	}
	d := &daemon{cmd: cmd, logPath: logPath, client: newClient("http://" + addr), exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitReady(ctx); err != nil {
		_ = d.stop()
		return nil, d.withLog(err)
	}
	return d, nil
}

func (d *daemon) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("anonnetd exited before it was ready: %v", d.waitErr)
		default:
		}
		if _, err := d.client.do(ctx, http.MethodGet, "/v1/readyz", nil); err == nil {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return errors.New("anonnetd not ready after 30s")
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop shuts the daemon down with SIGTERM, kills it if it has not exited
// after the drain budget, and waits for the process to end. Idempotent.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	defer d.client.http.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return d.withLog(errors.New("anonnetd ignored SIGTERM for 20s"))
	}
	if d.waitErr != nil {
		return d.withLog(fmt.Errorf("anonnetd: %w", d.waitErr))
	}
	return nil
}

// withLog appends the tail of the daemon's log to err.
func (d *daemon) withLog(err error) error {
	b, rerr := os.ReadFile(d.logPath)
	if rerr != nil {
		return err
	}
	if len(b) > 4096 {
		b = b[len(b)-4096:]
	}
	return fmt.Errorf("%w\nanonnetd log:\n%s", err, b)
}

// client speaks the daemon's public HTTP API.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * members},
	}}
}

// do issues one request that must succeed and returns the whole body.
func (c *client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return b, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode >= 300 {
		return b, fmt.Errorf("%s %s: status %d: %.512s", method, path, resp.StatusCode, b)
	}
	return b, nil
}

// counters returns the daemon's /metrics series and its memstats from
// /debug/vars (as "memstats.<Field>"), by name.
func (c *client) counters(ctx context.Context) (map[string]float64, error) {
	b, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(b), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	b, err = c.do(ctx, http.MethodGet, "/debug/vars", nil)
	if err != nil {
		return nil, err
	}
	var vars struct {
		Memstats map[string]any `json:"memstats"`
	}
	if err := json.Unmarshal(b, &vars); err != nil {
		return nil, fmt.Errorf("GET /debug/vars: %w", err)
	}
	for k, v := range vars.Memstats {
		if f, ok := v.(float64); ok {
			out["memstats."+k] = f
		}
	}
	return out, nil
}

// jobView is the public job JSON (GET /v1/jobs/{id}).
type jobView struct {
	State     string     `json:"state"`
	Error     string     `json:"error"`
	Result    *result    `json:"result"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
}

// result is the public job result. Non-finite numbers would arrive as
// strings and fail to decode, which counts the job as failed: no correct
// result of this workload has one.
type result struct {
	Outputs  []float64 `json:"outputs"`
	Rounds   int       `json:"rounds"`
	Expected float64   `json:"expected"`
	MaxErr   float64   `json:"max_err"`
}

// jobTiming is one member's path through the daemon. Decoding the fetched
// result happens after every span ends.
type jobTiming struct {
	ok      bool
	latency time.Duration // sweep request sent → result received
	queue   time.Duration // submitted → started (daemon clock)
	run     time.Duration // started → finished (daemon clock)
	notify  time.Duration // finished → terminal stream event read
	fetch   time.Duration // GET /v1/jobs/{id} round trip
}

type sweepResult struct {
	admit  time.Duration // POST /v1/batch round trip
	jobs   []jobTiming
	failed int   // members that did not end done with the right answer
	bytes  int64 // response bytes read for this sweep
}

// sweep submits one batch, follows every member to its terminal state
// concurrently, and fetches and checks each result against the ring size
// the batch gave it. A transport error aborts the run; a member that fails
// or computes a wrong answer is counted.
func (c *client) sweep(ctx context.Context, body any, sizes []int) (sweepResult, error) {
	req, err := json.Marshal(body)
	if err != nil {
		return sweepResult{}, err
	}
	start := time.Now()
	b, err := c.do(ctx, http.MethodPost, "/v1/batch", req)
	admit := time.Since(start)
	if err != nil {
		return sweepResult{}, err
	}
	var resp struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		return sweepResult{}, fmt.Errorf("POST /v1/batch: %w", err)
	}
	if len(resp.Jobs) != len(sizes) {
		return sweepResult{}, fmt.Errorf("POST /v1/batch: %d jobs for %d members", len(resp.Jobs), len(sizes))
	}
	res := sweepResult{admit: admit, jobs: make([]jobTiming, len(sizes)), bytes: int64(len(b))}
	errs := make([]error, len(sizes))
	read := make([]int, len(sizes))
	var wg sync.WaitGroup
	for i, j := range resp.Jobs {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			res.jobs[i], read[i], errs[i] = c.follow(ctx, id, start, sizes[i])
		}(i, j.ID)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return sweepResult{}, err
	}
	for i, err := range errs {
		res.bytes += int64(read[i])
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			res.failed++
		}
	}
	return res, nil
}

// follow waits for job id's terminal stream event, then fetches and checks
// its result. It returns the member's timing and the response bytes read.
func (c *client) follow(ctx context.Context, id string, start time.Time, n int) (jobTiming, int, error) {
	size, err := c.awaitTerminal(ctx, id)
	if err != nil {
		return jobTiming{}, size, err
	}
	notified := time.Now()
	b, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	fetched := time.Now()
	size += len(b)
	if err != nil {
		return jobTiming{}, size, err
	}
	var j jobView
	if err := json.Unmarshal(b, &j); err != nil {
		return jobTiming{}, size, fmt.Errorf("GET /v1/jobs/%s: %w", id, err)
	}
	if j.State != "done" || j.Started == nil || j.Finished == nil {
		return jobTiming{}, size, fmt.Errorf("job %s ended %s: %s", id, j.State, j.Error)
	}
	if err := check(j.Result, n); err != nil {
		return jobTiming{}, size, fmt.Errorf("job %s: %w", id, err)
	}
	return jobTiming{
		ok:      true,
		latency: fetched.Sub(start),
		queue:   j.Started.Sub(j.Submitted),
		run:     j.Finished.Sub(*j.Started),
		notify:  notified.Sub(*j.Finished),
		fetch:   fetched.Sub(notified),
	}, size, nil
}

// awaitTerminal reads job id's NDJSON stream up to its terminal event and
// returns the bytes read.
func (c *client) awaitTerminal(ctx context.Context, id string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /v1/jobs/%s/stream: status %d", id, resp.StatusCode)
	}
	r := bufio.NewReader(resp.Body)
	size := 0
	for {
		line, err := r.ReadBytes('\n')
		size += len(line)
		var ev struct {
			Done bool `json:"done"`
		}
		if json.Unmarshal(line, &ev) == nil && ev.Done {
			// Read the stream to its end so the connection is reused.
			_, _ = io.Copy(io.Discard, r)
			return size, nil
		}
		if err != nil {
			return size, fmt.Errorf("stream of job %s ended without a terminal event: %w", id, err)
		}
	}
}

// check verifies a two-round max flood on the n-ring with inputs 1..n:
// agent i outputs the largest input among agents i-2..i, the expectation is
// n, and the error is that of agent rounds, n-rounds-1.
func check(r *result, n int) error {
	if r == nil {
		return errors.New("done without a result")
	}
	if r.Rounds != rounds {
		return fmt.Errorf("ran %d rounds, want %d", r.Rounds, rounds)
	}
	if r.Expected != float64(n) || r.MaxErr != float64(n-rounds-1) {
		return fmt.Errorf("expected %v and max_err %v, want %d and %d", r.Expected, r.MaxErr, n, n-rounds-1)
	}
	if len(r.Outputs) != n {
		return fmt.Errorf("%d outputs for %d agents", len(r.Outputs), n)
	}
	for i, o := range r.Outputs {
		want := float64(i + 1)
		if i < rounds {
			want = float64(n)
		}
		if o != want {
			return fmt.Errorf("agent %d output %v, want %v", i, o, want)
		}
	}
	return nil
}
