// Command chaosdrill is the kill/restart soak harness for anonnetd's
// durable core: it boots the service against a seeded chaos plan
// (internal/chaos), submits a deterministic job mix, SIGKILLs the process
// at failpoint-chosen instants across many iterations, restarts it on the
// same data dir, and finally asserts the recovery invariants the
// checkpoint/resume machinery promises — every spec ends done exactly
// once, persisted job IDs survive recovery, and every result is
// byte-identical to an uninterrupted in-memory run of the same spec.
//
//	chaosdrill -iterations 25 -seed 1
//
// The same binary is both the parent (kill loop + verification) and, via
// the internal -child flag, the victim daemon. Every decision — kill
// instants, which iterations corrupt a log frame, which I/O operations
// fault — derives from -seed, so a failing drill is a reproduction
// recipe: rerun the seed, get the same kills.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"anonnet/internal/chaos"
	"anonnet/internal/job"
	"anonnet/internal/service"
	"anonnet/internal/store"
)

func main() {
	var (
		iterations = flag.Int("iterations", 25, "kill/restart iterations")
		seed       = flag.Int64("seed", 1, "drill seed: kill instants, corruption points, and chaos plan decisions all derive from it")
		dir        = flag.String("dir", "", "data dir (empty: a temp dir, removed on success)")
		jobs       = flag.Int("jobs", 6, "jobs in the seeded mix")
		rounds     = flag.Int("rounds", 700, "base round budget per job (each job adds a deterministic offset)")
		planJSON   = flag.String("plan", "", "chaos plan JSON (empty: the built-in kill-safe drill plan)")
		child      = flag.Bool("child", false, "internal: run as the victim daemon")
		iter       = flag.Int("iter", 0, "internal: child iteration number")
	)
	flag.Parse()

	plan := drillPlan()
	if *planJSON != "" {
		p, err := chaos.ParsePlan([]byte(*planJSON))
		if err != nil {
			fatalf("bad -plan: %v", err)
		}
		plan = *p
	}
	specs := buildSpecs(*seed, *jobs, *rounds)

	if *child {
		if err := runChild(*dir, *seed, *iter, plan, specs); err != nil {
			fatalf("child: %v", err)
		}
		return
	}
	if err := runParent(*dir, *seed, *iterations, plan, specs, *planJSON, *jobs, *rounds); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "chaosdrill: "+format+"\n", args...)
	os.Exit(1)
}

// drillPlan is the default failpoint mix. It is deliberately KILL-SAFE:
// only channels that cannot permanently lose or fail a job are on.
// Fsync errors exercise the typed ErrSyncFailed path without losing log
// bytes; slow I/O widens the SIGKILL window; worker stalls shift when each
// run starts against the kill instants. Write errors and panics are
// available via -plan for exploratory runs but would turn the drill's
// invariants probabilistic, so they stay out of the default.
func drillPlan() chaos.Plan {
	return chaos.Plan{
		SyncErr:       0.10,
		SlowIO:        0.15,
		SlowMaxMs:     3,
		RunStall:      0.25,
		RunStallMaxMs: 5,
	}
}

// buildSpecs is the deterministic job mix both parent and child derive
// from the flags: dynamic-outdegree Push-Sum runs (the checkpointable
// workload) with per-job seeds and staggered round budgets, patience
// pinned to the budget so every run is long enough to kill mid-flight.
func buildSpecs(seed int64, n, rounds int) []job.Spec {
	specs := make([]job.Spec, n)
	for i := range specs {
		r := rounds + 97*i
		specs[i] = job.Spec{
			Graph:     job.GraphSpec{Builder: "randomdyn", N: 8},
			Kind:      "od",
			Function:  "average",
			Seed:      seed*1000 + int64(i),
			MaxRounds: r,
			Patience:  r,
		}
	}
	return specs
}

// splitmix64 / hash01: the same keyed-hash idiom as internal/chaos, used
// here for the parent's own decisions (kill targets, corruption points).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hash01(seed uint64, keys ...uint64) float64 {
	h := splitmix64(seed)
	for _, k := range keys {
		h = splitmix64(h ^ k)
	}
	return float64(h>>11) / (1 << 53)
}

const (
	saltKill    = 0x5bd1e9955bd1e995
	saltCorrupt = 0x2127599bf4325c37
	saltChild   = 0xff51afd7ed558ccd
)

// childSeed decorrelates each iteration's I/O fault stream from the last
// while keeping it a pure function of (seed, iter).
func childSeed(seed int64, iter int) int64 {
	return int64(splitmix64(uint64(seed) ^ splitmix64(uint64(int64(iter))^saltChild)))
}

// ---------------------------------------------------------------------------
// Child: the victim daemon.

// runChild boots the durable core under the chaos plan, recovers pending
// jobs, tops the mix back up, and prints cumulative round progress until
// every job is terminal — unless the parent SIGKILLs it first.
func runChild(dir string, seed int64, iter int, plan chaos.Plan, specs []job.Spec) error {
	if dir == "" {
		return fmt.Errorf("-child requires -dir")
	}
	cs := childSeed(seed, iter)
	cfs, err := chaos.NewFS(cs, plan, nil)
	if err != nil {
		return err
	}
	// A small segment ceiling forces rotation within a drill-sized log, so
	// mid-log (non-final) segments exist for the corruption iterations to
	// damage and the quarantine path to repair.
	st, err := store.Open(dir, store.Options{Sync: true, FS: cfs, MaxSegmentBytes: 2048})
	if err != nil {
		return err
	}
	defer st.Close()
	ic, err := chaos.Intercept(cs, plan)
	if err != nil {
		return err
	}
	svc := service.New(service.Config{
		Workers:         1, // one worker keeps the I/O sequence deterministic
		Store:           st,
		CheckpointEvery: 25,
		Intercept:       ic,
	})
	if _, err := svc.Recover(); err != nil {
		return err
	}
	// Top up: submit every spec whose hash has never been persisted (its
	// first submission either hasn't happened or lost its append and was
	// killed before a later append backfilled it).
	if err := topUp(svc, st, specs); err != nil {
		return err
	}

	out := bufio.NewWriter(os.Stdout)
	last := int64(-1)
	for {
		stats := svc.Stats()
		if stats.RoundsSimulated != last {
			last = stats.RoundsSimulated
			fmt.Fprintf(out, "rounds %d\n", last)
			out.Flush()
		}
		if allTerminal(svc) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Clean exit: flush running state (there is none — everything is
	// terminal).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		return err
	}
	if err := st.Close(); err != nil && !strings.Contains(err.Error(), "injected") {
		return err
	}
	fmt.Fprintln(out, "alldone")
	return out.Flush()
}

// topUp submits every spec whose hash no logged record carries, reading
// the log once.
func topUp(svc *service.Service, st *store.Store, specs []job.Spec) error {
	known := make(map[string]bool)
	if err := st.Scan(func(rec store.Record) error {
		known[rec.Hash] = true
		return nil
	}); err != nil {
		return err
	}
	for _, sp := range specs {
		c, err := job.Compile(sp)
		if err != nil {
			return err
		}
		if known[c.Hash] {
			continue
		}
		if _, err := svc.Submit(sp); err != nil {
			return err
		}
	}
	return nil
}

func allTerminal(svc *service.Service) bool {
	jobs := svc.List()
	for _, j := range jobs {
		if !j.State.Terminal() {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Parent: kill loop + verification.

func runParent(dir string, seed int64, iterations int, plan chaos.Plan, specs []job.Spec, planJSON string, jobs, rounds int) error {
	start := time.Now()
	if dir == "" {
		tmp, err := os.MkdirTemp("", "chaosdrill-*")
		if err != nil {
			return err
		}
		dir = tmp
		defer func() {
			// Kept on failure for forensics; the deferred cleanup below only
			// runs after a fully successful drill.
		}()
	}
	ref, err := referenceResults(specs)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}

	kills, corruptions := 0, 0
	for iter := 1; iter <= iterations; iter++ {
		// Kill instant: a cumulative-round target for this boot, chosen by
		// hash. Once all jobs are done, children finish before any target
		// and the remaining iterations become cheap restart/verify passes.
		target := 150 + int(hash01(uint64(seed), saltKill, uint64(int64(iter)))*1050)
		killed, err := runIteration(exe, dir, seed, iter, target, planJSON, jobs, rounds, iterations)
		if err != nil {
			return fmt.Errorf("iteration %d: %w", iter, err)
		}
		if killed {
			kills++
		}
		// Some iterations additionally corrupt the log, exercising the
		// store's mid-segment quarantine on the next boot.
		if hash01(uint64(seed), saltCorrupt, uint64(int64(iter))) < 0.25 {
			did, err := corruptSafeFrame(dir)
			if err != nil {
				return fmt.Errorf("iteration %d: corrupting log: %w", iter, err)
			}
			if did {
				corruptions++
			}
		}
	}

	quarantines, err := verify(dir, specs, ref, corruptions)
	if err != nil {
		return err
	}
	log.Printf("chaosdrill: OK — %d iterations, %d kills, %d corruptions (%d segments quarantined), %d jobs byte-identical (%.1fs, seed %d)",
		iterations, kills, corruptions, quarantines, len(specs), time.Since(start).Seconds(), seed)
	return nil
}

// referenceResults runs every spec uninterrupted and in-memory, then
// normalizes each result through a JSON round-trip so later comparisons
// against store-served results compare like with like.
func referenceResults(specs []job.Spec) (map[string]*job.Result, error) {
	ref := make(map[string]*job.Result, len(specs))
	for i, sp := range specs {
		c, err := job.Compile(sp)
		if err != nil {
			return nil, fmt.Errorf("specs[%d]: %w", i, err)
		}
		res, err := job.Run(context.Background(), c, nil)
		if err != nil {
			return nil, fmt.Errorf("specs[%d]: reference run: %w", i, err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		var norm job.Result
		if err := json.Unmarshal(raw, &norm); err != nil {
			return nil, err
		}
		ref[c.Hash] = &norm
	}
	return ref, nil
}

// runIteration spawns one victim child and either SIGKILLs it once its
// cumulative round counter crosses target or lets it finish. Returns
// whether the child was killed.
func runIteration(exe, dir string, seed int64, iter, target int, planJSON string, jobs, rounds, iterations int) (bool, error) {
	args := []string{"-child", "-dir", dir,
		"-seed", strconv.FormatInt(seed, 10), "-iter", strconv.Itoa(iter),
		"-jobs", strconv.Itoa(jobs), "-rounds", strconv.Itoa(rounds),
		"-iterations", strconv.Itoa(iterations)}
	if planJSON != "" {
		args = append(args, "-plan", planJSON)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return false, err
	}
	if err := cmd.Start(); err != nil {
		return false, err
	}

	killed := make(chan bool, 1)
	go func() {
		didKill := false
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if n, ok := strings.CutPrefix(line, "rounds "); ok && !didKill {
				if r, err := strconv.Atoi(n); err == nil && r >= target {
					cmd.Process.Kill()
					didKill = true
				}
			}
		}
		killed <- didKill
	}()

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		didKill := <-killed
		if err != nil && !didKill {
			return false, fmt.Errorf("child exited: %w", err)
		}
		return didKill, nil
	case <-time.After(120 * time.Second):
		cmd.Process.Kill()
		<-done
		<-killed
		return false, fmt.Errorf("child wedged past the watchdog (target %d rounds)", target)
	}
}

// corruptSafeFrame flips a payload byte in the LAST frame of a non-final
// log segment, provided that frame is a bare state-transition record
// (running/queued without spec or result) — damage the store must absorb
// by quarantining the segment without losing job identity: the job's
// spec-bearing record sits in an earlier frame, so recovery re-derives
// everything the lost frame carried. It reads the segments with the
// store's own frame walker. Returns false when no segment offers a safely
// corruptible frame.
func corruptSafeFrame(dir string) (bool, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "log", "seg-*.log"))
	if err != nil {
		return false, err
	}
	sort.Strings(segs)
	if len(segs) < 2 {
		return false, nil
	}
	for i := len(segs) - 2; i >= 0; i-- {
		data, err := os.ReadFile(segs[i])
		if err != nil {
			return false, err
		}
		var last *store.Record
		end, err := store.WalkFrames(data, func(_ int64, rec store.Record) error {
			last = &rec
			return nil
		})
		if err != nil {
			// Every CRC-valid frame is a record the store wrote; one the
			// decoder refuses means the drill no longer reads the log format.
			return false, fmt.Errorf("%s: CRC-valid frame at offset %d: %w", filepath.Base(segs[i]), end, err)
		}
		if last == nil || end != int64(len(data)) {
			continue // empty, or already damaged (an earlier corruption not yet replayed)
		}
		safe := (last.State == store.StateRunning || last.State == store.StateQueued) &&
			len(last.Spec) == 0 && len(last.Result) == 0
		if !safe {
			continue
		}
		data[end-1] ^= 0xff // the frame's last payload byte
		if err := os.WriteFile(segs[i], data, 0o644); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// verify is the drill's final pass: open the store with a clean
// filesystem, drain whatever is still pending, and hold the log to the
// recovery invariants. Returns the number of quarantined segments.
func verify(dir string, specs []job.Spec, ref map[string]*job.Result, corruptions int) (int, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, fmt.Errorf("final open: %w", err)
	}
	svc := service.New(service.Config{Workers: 1, Store: st})
	if _, err := svc.Recover(); err != nil {
		return 0, fmt.Errorf("final recover: %w", err)
	}
	if err := topUp(svc, st, specs); err != nil {
		return 0, err
	}
	deadline := time.Now().Add(120 * time.Second)
	for !allTerminal(svc) {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("final drain wedged")
		}
		time.Sleep(2 * time.Millisecond)
	}
	svc.Close()
	if err := st.Close(); err != nil {
		return 0, err
	}

	// Replay the final log from scratch: what is on disk, not what memory
	// accumulated, is the contract.
	final, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, fmt.Errorf("verification reopen: %w", err)
	}
	defer final.Close()
	stats := final.Stats()
	if corruptions > 0 && stats.QuarantinedSegments == 0 {
		return 0, fmt.Errorf("%d corruptions injected but no segment was quarantined", corruptions)
	}
	// One pass over the whole log, which still holds every record the kill
	// loop persisted: a job keeps one hash through every recovery, and a
	// hash belongs to one job (no duplicated terminal jobs).
	type jobEnd struct{ hash, state, err string }
	jobs := make(map[string]*jobEnd)
	var order []string
	owner := make(map[string]string) // hash → job ID
	if err := final.Scan(func(rec store.Record) error {
		j, ok := jobs[rec.JobID]
		if !ok {
			j = &jobEnd{}
			jobs[rec.JobID] = j
			order = append(order, rec.JobID)
		}
		if rec.Hash != "" {
			if j.hash != "" && j.hash != rec.Hash {
				return fmt.Errorf("job %s changed hash across recovery: %s → %s", rec.JobID, j.hash, rec.Hash)
			}
			if id, ok := owner[rec.Hash]; ok && id != rec.JobID {
				return fmt.Errorf("hash %s appears on jobs %s and %s (duplicated terminal job)", rec.Hash, id, rec.JobID)
			}
			j.hash, owner[rec.Hash] = rec.Hash, rec.JobID
		}
		if rec.State != "" {
			j.state = rec.State
		}
		j.err = rec.Error
		return nil
	}); err != nil {
		return 0, err
	}
	if len(jobs) != len(specs) {
		return 0, fmt.Errorf("log holds %d jobs, want %d (lost or duplicated jobs)", len(jobs), len(specs))
	}
	for _, id := range order {
		j := jobs[id]
		if j.state != store.StateDone {
			return 0, fmt.Errorf("job %s ended %q, want done (%s)", id, j.state, j.err)
		}
		want, ok := ref[j.hash]
		if !ok {
			return 0, fmt.Errorf("job %s carries unknown hash %s", id, j.hash)
		}
		raw, ok := final.ResultByHash(j.hash)
		if !ok {
			return 0, fmt.Errorf("job %s: no result is logged under hash %s", id, j.hash)
		}
		var got job.Result
		if err := json.Unmarshal(raw, &got); err != nil {
			return 0, fmt.Errorf("job %s result: %w", id, err)
		}
		if !reflect.DeepEqual(&got, want) {
			return 0, fmt.Errorf("job %s: resumed result differs from the uninterrupted run (hash %s)", id, j.hash)
		}
	}
	for hash := range ref {
		if _, ok := owner[hash]; !ok {
			return 0, fmt.Errorf("spec hash %s never reached a done record", hash)
		}
	}
	return stats.QuarantinedSegments, nil
}
