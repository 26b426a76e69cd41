package chaos

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{WriteErr: -0.1},
		{ShortWrite: 1.5},
		{SyncErr: 2},
		{SlowMaxMs: -1},
		{SlowMaxMs: 5}, // slow_max_ms without slow_io
		{RunStallMaxMs: 5},
		{RunPanic: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad[%d] %+v validated", i, p)
		}
	}
	good := Plan{WriteErr: 0.1, ShortWrite: 0.1, SyncErr: 0.5, SlowIO: 0.2, SlowMaxMs: 3,
		RunStall: 0.1, RunStallMaxMs: 2, RunPanic: 0.01}
	if err := good.Validate(); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
}

func TestParsePlanRejectsUnknownFields(t *testing.T) {
	if _, err := ParsePlan([]byte(`{"sync_err":0.2,"bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	// The retired transient channel fails loudly instead of being dropped.
	if _, err := ParsePlan([]byte(`{"run_transient":0.1}`)); err == nil {
		t.Fatal("run_transient accepted")
	}
	p, err := ParsePlan([]byte(`{"sync_err":0.2,"run_panic":0.1}`))
	if err != nil || p.SyncErr != 0.2 || p.RunPanic != 0.1 {
		t.Fatalf("ParsePlan = %+v, %v", p, err)
	}
	if p.IsZero() {
		t.Fatal("non-zero plan reported zero")
	}
	if z := (&Plan{}); !z.IsZero() {
		t.Fatal("zero plan reported non-zero")
	}
}

// faultTrace drives n writes and syncs through a chaos FS against a real
// temp file and records which operations faulted.
func faultTrace(t *testing.T, seed int64, plan Plan, n int) string {
	t.Helper()
	fs, err := NewFS(seed, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenFile(filepath.Join(t.TempDir(), "x"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	trace := ""
	for i := 0; i < n; i++ {
		if _, err := f.Write([]byte("0123456789abcdef")); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("write %d: non-injected error %v", i, err)
			}
			trace += "w"
		}
		if err := f.Sync(); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("sync %d: non-injected error %v", i, err)
			}
			trace += "s"
		}
		trace += "."
	}
	return trace
}

func TestFSDeterministicAcrossRuns(t *testing.T) {
	plan := Plan{WriteErr: 0.2, ShortWrite: 0.2, SyncErr: 0.3}
	a := faultTrace(t, 42, plan, 64)
	b := faultTrace(t, 42, plan, 64)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	c := faultTrace(t, 43, plan, 64)
	if a == c {
		t.Fatal("different seeds produced identical fault traces (suspicious hash)")
	}
	// The plan's channels actually fired somewhere in 64 ops at p≈0.2.
	if a == "................................................................" {
		t.Fatal("no faults injected at all")
	}
}

func TestFSZeroPlanIsPassthrough(t *testing.T) {
	trace := faultTrace(t, 1, Plan{}, 32)
	for _, ch := range trace {
		if ch != '.' {
			t.Fatalf("zero plan injected a fault: %s", trace)
		}
	}
}

func TestFSShortWriteLeavesPrefix(t *testing.T) {
	// short_write=1 faults every write; the first half of each buffer must
	// still land in the file.
	fs, err := NewFS(7, Plan{ShortWrite: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x")
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdefgh"))
	if !errors.Is(err, ErrInjected) || n != 4 {
		t.Fatalf("short write: n=%d err=%v, want 4 bytes and an injected error", n, err)
	}
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "abcd" {
		t.Fatalf("file holds %q (%v), want the 4-byte prefix", data, err)
	}
	if st := fs.Stats(); st.ShortWrites != 1 {
		t.Fatalf("stats %+v, want 1 short write", st)
	}
}

// TestInterceptDeterministic holds the runner channels to a pure
// function of (seed, job ID): two hooks from one seed stall and panic on
// the same jobs, and both channels fire somewhere in 32 jobs. The hooks
// run on a canceled context, so a stall shows as the context's error at
// once instead of as a delay.
func TestInterceptDeterministic(t *testing.T) {
	plan := Plan{RunStall: 0.5, RunStallMaxMs: 1000, RunPanic: 0.3}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mk := func() func(context.Context, string) error {
		ic, err := Intercept(99, plan)
		if err != nil || ic == nil {
			t.Fatalf("Intercept hook nil=%v, err=%v", ic == nil, err)
		}
		return ic
	}
	trace := func(ic func(context.Context, string) error) string {
		out := ""
		for j := 0; j < 32; j++ {
			out += func() (verdict string) {
				defer func() {
					if recover() != nil {
						verdict = "p"
					}
				}()
				switch err := ic(ctx, fmt.Sprintf("j%06d", j+1)); {
				case err == nil:
					return "."
				case errors.Is(err, context.Canceled):
					return "s"
				default:
					t.Fatalf("unexpected error %v", err)
					return "?"
				}
			}()
		}
		return out
	}
	a, b := trace(mk()), trace(mk())
	if a != b {
		t.Fatalf("intercept diverged:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "p") || !strings.Contains(a, "s") {
		t.Fatalf("a channel never fired across 32 jobs: %s", a)
	}
}

func TestInterceptNilForQuietPlan(t *testing.T) {
	ic, err := Intercept(1, Plan{SyncErr: 0.5})
	if err != nil || ic != nil {
		t.Fatalf("Intercept on FS-only plan: hook nil=%v, err=%v; want nil hook", ic == nil, err)
	}
}
