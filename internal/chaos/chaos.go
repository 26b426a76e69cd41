// Package chaos is the deterministic infrastructure fault layer — the
// faultnet idea lifted from the simulated network up to the machinery the
// daemon itself runs on. A seeded, JSON-codable Plan describes failpoint
// probabilities for the two infrastructure surfaces anonnetd touches: the
// filesystem under the durable store (failed writes, short writes, fsync
// errors, slow I/O — see NewFS) and the worker executing a job (stalls
// and panics — see Intercept).
//
// Determinism is the design center, exactly as in internal/faults: every
// fault decision is a splitmix64-style hash of (seed, channel salt,
// operation sequence), never a draw from a shared RNG stream. Re-running
// the same (seed, Plan) against the same operation sequence replays the
// exact same faults, which is what makes a chaos drill debuggable: a
// failing seed is a reproduction recipe, not a flake.
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Plan describes the failpoint channels of one drill. All channels compose
// independently; the zero Plan injects nothing. Probabilities are per
// operation and must lie in [0, 1].
type Plan struct {
	// WriteErr is the probability that a file write fails outright: no
	// bytes reach the file and the write returns an error (a full disk, a
	// dead device). Exercises the store's lost-data path.
	WriteErr float64 `json:"write_err,omitempty"`
	// ShortWrite is the probability that a file write stops halfway: the
	// first half of the buffer reaches the file, then the write errors (a
	// crash-adjacent partial write). Exercises the store's segment
	// self-repair.
	ShortWrite float64 `json:"short_write,omitempty"`
	// SyncErr is the probability that an fsync fails after the bytes
	// reached the file — lost durability, not lost data. Exercises the
	// store's ErrSyncFailed path and the service's sync-failure count.
	SyncErr float64 `json:"sync_err,omitempty"`
	// SlowIO is the probability that a write or fsync is delayed by up to
	// SlowMaxMs milliseconds, widening the window a SIGKILL can land in.
	SlowIO float64 `json:"slow_io,omitempty"`
	// SlowMaxMs bounds the injected I/O delay in milliseconds (0 means 10).
	SlowMaxMs int `json:"slow_max_ms,omitempty"`

	// RunStall is the per-job probability that a worker stalls for up to
	// RunStallMaxMs milliseconds before running the job's engine.
	RunStall float64 `json:"run_stall,omitempty"`
	// RunStallMaxMs bounds the injected worker stall in milliseconds
	// (0 means 25).
	RunStallMaxMs int `json:"run_stall_max_ms,omitempty"`
	// RunPanic is the per-job probability that a worker panics instead of
	// running the job — the service must recover it into a failed job,
	// never a dead worker.
	RunPanic float64 `json:"run_panic,omitempty"`
}

func probability(name string, p float64) error {
	if p < 0 || p > 1 || p != p {
		return fmt.Errorf("chaos: %s probability %v outside [0, 1]", name, p)
	}
	return nil
}

// Validate checks ranges.
func (p *Plan) Validate() error {
	for _, c := range []struct {
		name string
		p    float64
	}{
		{"write_err", p.WriteErr},
		{"short_write", p.ShortWrite},
		{"sync_err", p.SyncErr},
		{"slow_io", p.SlowIO},
		{"run_stall", p.RunStall},
		{"run_panic", p.RunPanic},
	} {
		if err := probability(c.name, c.p); err != nil {
			return err
		}
	}
	if p.SlowMaxMs < 0 {
		return fmt.Errorf("chaos: slow_max_ms %d is negative", p.SlowMaxMs)
	}
	if p.RunStallMaxMs < 0 {
		return fmt.Errorf("chaos: run_stall_max_ms %d is negative", p.RunStallMaxMs)
	}
	if p.SlowMaxMs > 0 && p.SlowIO == 0 {
		return fmt.Errorf("chaos: slow_max_ms %d set but slow_io is 0", p.SlowMaxMs)
	}
	if p.RunStallMaxMs > 0 && p.RunStall == 0 {
		return fmt.Errorf("chaos: run_stall_max_ms %d set but run_stall is 0", p.RunStallMaxMs)
	}
	return nil
}

// IsZero reports whether the plan injects nothing: a zero plan wrapped
// around an FS or runner is a pure passthrough.
func (p *Plan) IsZero() bool {
	if p == nil {
		return true
	}
	return p.WriteErr == 0 && p.ShortWrite == 0 && p.SyncErr == 0 && p.SlowIO == 0 &&
		p.RunStall == 0 && p.RunPanic == 0
}

// ParsePlan decodes and validates a JSON plan, rejecting unknown fields.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("chaos: decoding plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Per-channel salts: arbitrary odd 64-bit constants that decorrelate the
// failpoint channels from one another (same idiom as internal/faults).
const (
	saltWriteErr   = 0x8e4c6b1f0d2a9563
	saltShortWrite = 0xa1b2c3d4e5f60718
	saltSyncErr    = 0x3779f94f6cdd1d2b
	saltSlowIO     = 0x6659fd93d6e8feb9
	saltSlowLen    = 0x133111eb94d049bb
	saltStall      = 0x1ce4e5b9bf58476d
	saltStallLen   = 0x7f4a7c159e3779b9
	saltPanic      = 0x27d4eb4fc2b2ae3d
)

// splitmix64 is the finalizer of the splitmix64 generator: a bijective
// avalanche mix with good distribution, used here as a keyed hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash01 maps (seed, salt, keys...) to a uniform float64 in [0, 1).
func hash01(seed, salt uint64, keys ...uint64) float64 {
	h := splitmix64(seed ^ salt)
	for _, k := range keys {
		h = splitmix64(h ^ k)
	}
	return float64(h>>11) / (1 << 53)
}

// hashString folds a string into a 64-bit key (FNV-1a), feeding job IDs
// into the decision hash.
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
