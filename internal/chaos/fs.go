package chaos

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"anonnet/internal/store"
)

// ErrInjected is the root of every chaos-injected error; callers and tests
// use errors.Is against it to tell injected faults from real ones.
var ErrInjected = errors.New("chaos: injected fault")

// FSStats counts the faults an FS actually injected — the drill's receipt
// that the plan fired.
type FSStats struct {
	WriteErrs   int64 `json:"write_errs"`
	ShortWrites int64 `json:"short_writes"`
	SyncErrs    int64 `json:"sync_errs"`
	Slowed      int64 `json:"slowed"`
}

// FS wraps a store.FS, deterministically injecting infrastructure faults
// into the files it opens. Every injection decision is a pure hash of
// (seed, channel salt, operation sequence number), so a store whose
// operations arrive in a deterministic order — the store serializes
// appends under its own lock; drills run one worker — sees the exact same
// faults on every run of the same seed.
//
// Faults land on file operations (Write, Sync); directory-level calls
// (rename, truncate, remove) pass through untouched, because the store
// uses those for its own repairs and a repair that can fail forever would
// wedge replay rather than exercise it.
type FS struct {
	seed  uint64
	plan  Plan
	inner store.FS

	writeSeq atomic.Uint64
	syncSeq  atomic.Uint64

	writeErrs   atomic.Int64
	shortWrites atomic.Int64
	syncErrs    atomic.Int64
	slowed      atomic.Int64
}

var _ store.FS = (*FS)(nil)

// NewFS validates the plan and wraps inner (nil means the real
// filesystem) in a chaos layer keyed by seed.
func NewFS(seed int64, plan Plan, inner store.FS) (*FS, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if inner == nil {
		inner = store.OS()
	}
	return &FS{seed: uint64(seed), plan: plan, inner: inner}, nil
}

// Stats snapshots the injected-fault counters.
func (c *FS) Stats() FSStats {
	return FSStats{
		WriteErrs:   c.writeErrs.Load(),
		ShortWrites: c.shortWrites.Load(),
		SyncErrs:    c.syncErrs.Load(),
		Slowed:      c.slowed.Load(),
	}
}

func (c *FS) MkdirAll(path string, perm os.FileMode) error { return c.inner.MkdirAll(path, perm) }
func (c *FS) ReadDir(path string) ([]os.DirEntry, error)   { return c.inner.ReadDir(path) }
func (c *FS) ReadFile(path string) ([]byte, error)         { return c.inner.ReadFile(path) }
func (c *FS) Truncate(path string, size int64) error       { return c.inner.Truncate(path, size) }
func (c *FS) Remove(path string) error                     { return c.inner.Remove(path) }
func (c *FS) Rename(oldpath, newpath string) error         { return c.inner.Rename(oldpath, newpath) }

func (c *FS) OpenFile(path string, flag int, perm os.FileMode) (store.File, error) {
	f, err := c.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &chaosFile{File: f, fs: c}, nil
}

func (c *FS) CreateTemp(dir, pattern string) (store.File, error) {
	f, err := c.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &chaosFile{File: f, fs: c}, nil
}

// maybeSlow injects the slow-I/O channel against one operation sequence
// number: a hash-chosen delay in (0, SlowMaxMs] milliseconds.
func (c *FS) maybeSlow(seq uint64) {
	if c.plan.SlowIO <= 0 || hash01(c.seed, saltSlowIO, seq) >= c.plan.SlowIO {
		return
	}
	maxMs := c.plan.SlowMaxMs
	if maxMs <= 0 {
		maxMs = 10
	}
	d := 1 + int(hash01(c.seed, saltSlowLen, seq)*float64(maxMs))
	if d > maxMs {
		d = maxMs
	}
	c.slowed.Add(1)
	time.Sleep(time.Duration(d) * time.Millisecond)
}

// chaosFile interposes on the write-side file surface. ReadAt, Close,
// Seek, Truncate, and Name pass through so the store's own repair
// machinery and its result read-back stay reliable.
type chaosFile struct {
	store.File
	fs *FS
}

func (f *chaosFile) Write(p []byte) (int, error) {
	c := f.fs
	seq := c.writeSeq.Add(1)
	c.maybeSlow(seq)
	if c.plan.WriteErr > 0 && hash01(c.seed, saltWriteErr, seq) < c.plan.WriteErr {
		c.writeErrs.Add(1)
		return 0, fmt.Errorf("%w: write %d failed", ErrInjected, seq)
	}
	if c.plan.ShortWrite > 0 && len(p) > 1 && hash01(c.seed, saltShortWrite, seq) < c.plan.ShortWrite {
		c.shortWrites.Add(1)
		n, err := f.File.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w: write %d stopped after %d of %d bytes", ErrInjected, seq, n, len(p))
	}
	return f.File.Write(p)
}

// Sync flushes the file first and then decides the fault: an injected
// fsync failure models a kernel that wrote the pages but could not promise
// the platter — the data is in the file, the guarantee is not — which is
// exactly the contract of store.ErrSyncFailed.
func (f *chaosFile) Sync() error {
	c := f.fs
	seq := c.syncSeq.Add(1)
	c.maybeSlow(seq)
	err := f.File.Sync()
	if err != nil {
		return err
	}
	if c.plan.SyncErr > 0 && hash01(c.seed, saltSyncErr, seq) < c.plan.SyncErr {
		c.syncErrs.Add(1)
		return fmt.Errorf("%w: fsync %d failed", ErrInjected, seq)
	}
	return nil
}
