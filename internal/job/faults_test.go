package job

// Spec-level contract of the faults block: hash compatibility (absent and
// zero plans hash like pre-faults specs), version gating, churn×ports
// rejection, and deterministic faulted runs across engines.

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"anonnet/internal/faults"
)

func TestFaultSpecHashCompat(t *testing.T) {
	base := ringAverageSpec()
	ref, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}

	zero := base
	zero.SchemaVersion = 3
	zero.Faults = &faults.Plan{}
	h, err := zero.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h != ref {
		t.Fatal("zero faults plan changed the hash; pre-faults cache keys would be invalidated")
	}

	churnZero := base
	churnZero.SchemaVersion = 3
	churnZero.Faults = &faults.Plan{Churn: &faults.ChurnPlan{Guard: faults.GuardRepair}}
	if h, err = churnZero.Hash(); err != nil || h != ref {
		t.Fatalf("zero-drop churn changed the hash (%v)", err)
	}

	nonzero := base
	nonzero.SchemaVersion = 3
	nonzero.Faults = &faults.Plan{Drop: 0.1}
	if h, err = nonzero.Hash(); err != nil {
		t.Fatal(err)
	}
	if h == ref {
		t.Fatal("non-zero faults plan did not change the hash")
	}

	// Default materialization: delay_p with implicit and explicit
	// delay_max 1 denote the same plan, hence hash identically.
	a, b := base, base
	a.SchemaVersion, b.SchemaVersion = 3, 3
	a.Faults = &faults.Plan{DelayP: 0.2}
	b.Faults = &faults.Plan{DelayP: 0.2, DelayMax: 1}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatal("implicit and explicit delay_max 1 hash differently")
	}
}

func TestFaultSpecVersionGate(t *testing.T) {
	for _, v := range []int{1, 2} {
		s := ringAverageSpec()
		s.SchemaVersion = v
		s.Faults = &faults.Plan{Drop: 0.5}
		_, err := s.Canonical()
		assertField(t, err, "faults")
	}
	s := ringAverageSpec()
	s.SchemaVersion = 3
	s.Faults = &faults.Plan{Drop: 0.5}
	if _, err := s.Canonical(); err != nil {
		t.Fatalf("v3 spec with faults rejected: %v", err)
	}
	// A zero plan is allowed at any version (it means "no faults").
	s = ringAverageSpec()
	s.SchemaVersion = 1
	s.Faults = &faults.Plan{}
	if _, err := s.Canonical(); err != nil {
		t.Fatalf("v1 spec with zero faults rejected: %v", err)
	}
}

func TestFaultSpecChurnPortsRejected(t *testing.T) {
	s := ringAverageSpec()
	s.Kind = "op"
	s.SchemaVersion = 3
	s.Faults = &faults.Plan{Churn: &faults.ChurnPlan{Drop: 0.2}}
	_, err := s.Canonical()
	assertField(t, err, "faults.churn")
}

func TestFaultSpecInvalidPlanTyped(t *testing.T) {
	s := ringAverageSpec()
	s.SchemaVersion = 3
	s.Faults = &faults.Plan{Drop: 1.5}
	_, err := s.Canonical()
	assertField(t, err, "faults")
}

func assertField(t *testing.T, err error, field string) {
	t.Helper()
	if err == nil {
		t.Fatalf("invalid spec accepted, want error on %q", field)
	}
	verr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error %T %v, want *Error on %q", err, err, field)
	}
	if verr.Field != field {
		t.Fatalf("error on field %q (%s), want %q", verr.Field, verr.Reason, field)
	}
}

// TestFaultRunDeterministicAcrossEngines: a faulted job yields identical
// results run-over-run, and the sharded engine reproduces the sequential
// result byte for byte.
func TestFaultRunDeterministicAcrossEngines(t *testing.T) {
	mk := func(engine string) *Result {
		s := ringAverageSpec()
		s.SchemaVersion = 3
		s.MaxRounds = 80
		s.Engine = engine
		s.Faults = &faults.Plan{Drop: 0.2, Dup: 0.1, DelayP: 0.1, Stall: 0.1, Crash: 0.05}
		c, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		if build(t, c).Injector == nil {
			t.Fatal("built faulted job has no injector")
		}
		res, err := Run(context.Background(), c, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq1, seq2, shd := mk(""), mk(""), mk("shard")
	if !reflect.DeepEqual(seq1, seq2) {
		t.Fatalf("faulted run not reproducible: %+v vs %+v", seq1, seq2)
	}
	if !reflect.DeepEqual(seq1, shd) {
		t.Fatalf("sequential and sharded faulted runs differ: %+v vs %+v", seq1, shd)
	}
	if seq1.Faults == nil || seq1.Faults.Dropped == 0 {
		t.Fatalf("faulted run reported no fault counts: %+v", seq1.Faults)
	}
}

// TestFaultRunChurnGuards: a churn plan whose first window disconnects
// the network compiles, and reject fails its build — and so its run —
// eagerly; repair compiles and keeps running.
func TestFaultRunChurnGuards(t *testing.T) {
	s := ringAverageSpec()
	s.SchemaVersion = 3
	s.MaxRounds = 40
	s.Faults = &faults.Plan{Churn: &faults.ChurnPlan{Drop: 1, Guard: faults.GuardReject}}
	rejected, err := Compile(s)
	if err != nil {
		t.Fatalf("compile checked the graph: %v", err)
	}
	_, buildErr := rejected.Build(nil)
	_, runErr := Run(context.Background(), rejected, nil)
	for _, err := range []error{buildErr, runErr} {
		if err == nil {
			t.Fatal("reject guard accepted a plan removing every link of a ring")
		}
		if verr, ok := err.(*Error); !ok || verr.Field != "faults.churn" || !strings.Contains(verr.Reason, "disconnects") {
			t.Fatalf("unexpected error %v", err)
		}
	}
	if buildErr.Error() != runErr.Error() {
		t.Fatalf("build error %q, run error %q", buildErr, runErr)
	}

	s.Faults.Churn.Guard = faults.GuardRepair
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), c, nil); err != nil {
		t.Fatalf("repaired churn run failed: %v", err)
	}
}

// TestFaultResultJSONOmitsAbsent: fault counts appear in the result JSON
// only for faulted jobs.
func TestFaultResultJSONOmitsAbsent(t *testing.T) {
	s := ringAverageSpec()
	s.MaxRounds = 40
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if build(t, c).Injector != nil {
		t.Fatal("fault-free job built an injector")
	}
	res, err := Run(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != nil {
		t.Fatalf("fault-free result carries fault counts: %+v", res.Faults)
	}
}
