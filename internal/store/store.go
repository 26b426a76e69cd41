// Package store is anonnetd's durable job store: an append-only,
// spec-hash-addressed log of job records plus a directory of engine
// checkpoint blobs. The log survives crashes — each record is a frame of
// a payload length, a CRC32 of the payload and the payload, segments
// rotate at a size ceiling, and replay truncates a torn tail (a crash
// mid-append) while sealing a segment corrupted anywhere else to a
// .quarantine forensic copy, preserving its valid prefix and replaying
// the segments after it. Each spec hash has at most one checkpoint blob,
// named after the hash and replaced atomically (temp file + rename) on
// every save, so a restarted daemon reads an interrupted job's latest
// checkpoint by name, with no index and no directory scan.
//
// The store keeps an index, not the jobs. Replay and Append keep where
// the first done record carrying a result under each spec hash sits, the
// non-terminal jobs with their specs, each job ID's first-seen position
// and the highest job sequence; everything else stays in the log.
// ResultByHash reads its one frame back from the segment, and Scan walks
// the whole log for drills and tests.
//
// A payload is a version byte and the record's fields with their lengths
// (record.go), so every field round-trips byte for byte and Append copies
// the spec and result without parsing them. Replay also reads the JSON
// records of earlier builds, whose first byte is '{'. Open writes the
// log/format-v1 marker before it appends anything; earlier builds reject
// that file as foreign, so they refuse an upgraded dir with ErrDirtyDir
// instead of truncating its v1 frames as a torn tail.
//
// Layout under the data dir:
//
//	log/seg-000001.log   append-only record segments
//	log/format-v1        empty marker: the log may hold v1 records
//	ckpt/<hash>.ckpt     the latest engine checkpoint of each spec hash
//
// The store knows nothing about the service's entry bookkeeping or the
// engines' checkpoint encoding; it persists opaque bytes and opaque blobs.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Store errors.
var (
	// ErrDirtyDir is returned by Open for a data dir holding files the
	// store did not write — a safety interlock against pointing -data-dir
	// at a directory that belongs to something else.
	ErrDirtyDir = errors.New("store: data dir contains foreign files")
	// ErrClosed is returned by mutating calls after Close.
	ErrClosed = errors.New("store: closed")
	// ErrNoCheckpoint is returned by LatestCheckpoint when no blob exists
	// for the spec hash.
	ErrNoCheckpoint = errors.New("store: no checkpoint")
	// ErrSyncFailed marks an append whose bytes reached the file but whose
	// fsync failed: the record will replay after a process crash, yet
	// durability against power loss is not guaranteed. Callers (the
	// service's backfill) use it to tell lost-durability from lost-data —
	// an append failing with any other error wrote nothing usable.
	ErrSyncFailed = errors.New("store: fsync failed")
	// ErrRecordTooLarge is returned by Append, which writes nothing, for
	// a record whose payload exceeds the frame ceiling (maxRecordBytes):
	// replay would read its length as damage. It is a property of the
	// record, not of the disk, so appending the same record again fails
	// the same way.
	ErrRecordTooLarge = errors.New("store: record exceeds the frame ceiling")
)

// Record is one append-only log entry: a job state transition. The first
// record of a job carries its spec; the done record carries its result.
// Later records for the same job ID overlay the earlier ones' hash, state
// and spec in the pending set, and a terminal record takes the job out of
// it. The JSON tags decode the records of earlier builds.
type Record struct {
	JobID string `json:"job_id"`
	// Hash is the canonical spec hash (the result address).
	Hash  string `json:"hash"`
	State string `json:"state"`
	// Spec is the canonical spec JSON, present on the first record. The
	// store copies it as given.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Result is the result JSON, present on the done record.
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	// Unix is the transition time in Unix nanoseconds (informational).
	Unix int64 `json:"unix,omitempty"`
}

// Job state names persisted in records. StateInterrupted is store-specific:
// a running job whose engine state was flushed to a checkpoint at
// shutdown, to be re-enqueued on the next boot.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateInterrupted = "interrupted"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCanceled    = "canceled"
)

// Terminal reports whether a persisted state is final. Non-terminal jobs
// found during replay are recovery candidates.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// Options tunes a Store. The zero value selects defaults.
type Options struct {
	// MaxSegmentBytes rotates the active segment once it reaches this
	// size (default 1 MiB). Records never span segments.
	MaxSegmentBytes int64
	// Sync fsyncs after every append. Durability against power loss at
	// the cost of append latency; the framing already survives process
	// crashes without it.
	Sync bool
	// FS is the filesystem the store runs on (default: the real one).
	// Injection point for the chaos layer's deterministic fault wrapper.
	FS FS
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 1 << 20
	}
	if o.FS == nil {
		o.FS = OS()
	}
	return o
}

// Stats is a snapshot of store counters for the /metrics endpoint.
type Stats struct {
	Segments      int   `json:"segments"`
	Records       int64 `json:"records"`
	LogBytes      int64 `json:"log_bytes"`
	Jobs          int   `json:"jobs"`
	Pending       int   `json:"pending"`
	Checkpoints   int64 `json:"checkpoints"`
	Appends       int64 `json:"appends"`
	TailTruncated bool  `json:"tail_truncated"`
	// QuarantinedSegments counts .quarantine seals present in the log dir
	// (pre-existing plus any produced by this open's replay).
	QuarantinedSegments int `json:"quarantined_segments"`
	// AppendErrors counts appends that failed before the frame was fully
	// written (lost data); SyncFailures counts appends whose bytes landed
	// but whose fsync failed (lost durability only).
	AppendErrors int64 `json:"append_errors"`
	SyncFailures int64 `json:"sync_failures"`
}

// Store is the durable job store. All methods are safe for concurrent
// use.
type Store struct {
	dir string
	opt Options
	fs  FS

	mu      sync.Mutex
	active  File
	segIdx  int
	segSize int64
	segs    int
	closed  bool
	damaged bool // active segment has an unrepaired partial frame: rotate before the next append

	// The index (see apply); the log holds everything else.
	served  map[string]frameAt // spec hash → its first done record with a result
	pending map[string]*Record // job ID → a non-terminal job's ID, hash, state and spec
	seen    map[string]int     // job ID → first-seen position
	maxSeq  int64              // the highest j<n> job sequence
	// ckpts holds the names of the checkpoint blobs on disk, for Stats and
	// so that finding or dropping the blob of a hash with none touches no
	// file.
	ckpts map[string]struct{}

	records     int64
	logBytes    int64
	appends     int64
	truncated   bool
	quarantined int
	appendErrs  int64
	syncFails   int64
}

const (
	logDir  = "log"
	ckptDir = "ckpt"
	// frameHeader is the per-record overhead: 4-byte big-endian payload
	// length followed by 4-byte CRC32 (IEEE) of the payload.
	frameHeader = 8
	// maxRecordBytes bounds a record's payload. Append refuses a larger
	// record (ErrRecordTooLarge), and replay treats a larger length in a
	// frame header as corruption, not as an allocation request. 64 MiB
	// holds the spec and the result of a job at the service's ceiling of
	// 2²⁰ agents when each carries one number of at most 25 bytes per
	// agent (50 MiB). A spec that also lists every agent's start round
	// and leader can exceed it.
	maxRecordBytes = 64 << 20
	// formatMarker is the empty file in log/ that marks a log holding v1
	// records.
	formatMarker = "format-v1"
)

// quarantineSuffix seals a segment whose middle failed validation: the
// damaged original is preserved for forensics under this suffix while the
// valid prefix is restored under the segment's own name.
const quarantineSuffix = ".quarantine"

var (
	segRe  = regexp.MustCompile(`^seg-(\d{6})\.log$`)
	qsegRe = regexp.MustCompile(`^seg-(\d{6})\.log\.quarantine$`)
	ckptRe = regexp.MustCompile(`^[0-9a-f]+\.ckpt$`)
	// legacyCkptRe matches the round-stamped blob names of earlier
	// builds, which replay removes.
	legacyCkptRe = regexp.MustCompile(`^[0-9a-f]{1,16}-r\d{8}\.ckpt$`)
)

// Open opens (or initializes) the store in dir. A fresh dir is laid out;
// an existing one is replayed — every segment is CRC-verified, a torn
// final record is truncated, and every job record is folded into the
// index. A dir holding anything the store does not recognize is rejected
// with ErrDirtyDir rather than guessed at.
func Open(dir string, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	fs := opt.FS
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := checkLayout(fs, dir); err != nil {
		return nil, err
	}
	for _, sub := range []string{logDir, ckptDir} {
		if err := fs.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	// The marker goes down before any v1 record can, so a build that reads
	// only JSON records refuses this dir instead of truncating it.
	marker, err := fs.OpenFile(filepath.Join(dir, logDir, formatMarker), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := marker.Close(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		opt:     opt,
		fs:      fs,
		served:  make(map[string]frameAt),
		pending: make(map[string]*Record),
		seen:    make(map[string]int),
		ckpts:   make(map[string]struct{}),
	}
	if err := s.replay(); err != nil {
		return nil, err
	}
	if err := s.openActive(); err != nil {
		return nil, err
	}
	return s, nil
}

// checkLayout rejects data dirs with foreign content: only the store's
// own subdirectories and files may be present.
func checkLayout(fs FS, dir string) error {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() && (e.Name() == logDir || e.Name() == ckptDir) {
			continue
		}
		return fmt.Errorf("%w: unexpected %q in %s (pick an empty or store-owned directory)",
			ErrDirtyDir, e.Name(), dir)
	}
	if err := checkNames(fs, filepath.Join(dir, logDir), func(name string) bool {
		// .quarantine seals are the store's own damage reports, not
		// foreign files.
		return segRe.MatchString(name) || qsegRe.MatchString(name) || name == formatMarker
	}); err != nil {
		return err
	}
	return checkNames(fs, filepath.Join(dir, ckptDir), func(name string) bool {
		// Leftover .tmp files from a crash mid-save and the blobs of
		// earlier builds are removed by replay, not rejected.
		return ckptRe.MatchString(name) || legacyCkptRe.MatchString(name) ||
			strings.HasSuffix(name, ".tmp")
	})
}

func checkNames(fs FS, dir string, ok func(string) bool) error {
	entries, err := fs.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !ok(e.Name()) {
			return fmt.Errorf("%w: unexpected %q in %s", ErrDirtyDir, e.Name(), dir)
		}
	}
	return nil
}

// segments lists segment file names in index order.
func (s *Store) segments() ([]string, error) {
	entries, err := s.fs.ReadDir(filepath.Join(s.dir, logDir))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if segRe.MatchString(e.Name()) {
			names = append(names, e.Name())
		} else if qsegRe.MatchString(e.Name()) {
			s.quarantined++
		}
	}
	sort.Strings(names)
	return names, nil
}

// replay loads every segment, verifying frames and folding records into
// the index. A torn tail — a partial frame at the end of the final
// segment — is truncated in place; the same damage anywhere else
// quarantines the segment.
func (s *Store) replay() error {
	names, err := s.segments()
	if err != nil {
		return err
	}
	s.segs = len(names)
	for i, name := range names {
		idx, _ := strconv.Atoi(segRe.FindStringSubmatch(name)[1])
		last := i == len(names)-1
		good, err := s.replaySegment(idx, last)
		if err != nil {
			return err
		}
		if last {
			s.segIdx = idx
			s.segSize = good
		}
		s.logBytes += good
	}
	// Note the blobs and sweep the rest: checkLayout admitted only temp
	// files left by a crash mid-save and the round-stamped blobs of
	// earlier builds, whose jobs rerun from round 0.
	entries, err := s.fs.ReadDir(filepath.Join(s.dir, ckptDir))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if ckptRe.MatchString(e.Name()) {
			s.ckpts[e.Name()] = struct{}{}
			continue
		}
		s.fs.Remove(filepath.Join(s.dir, ckptDir, e.Name()))
	}
	return nil
}

// replaySegment reads segment idx, returning the byte offset of the last
// good frame. In the final segment a bad tail is truncated; elsewhere the
// damaged segment is quarantined.
func (s *Store) replaySegment(idx int, last bool) (int64, error) {
	path := filepath.Join(s.dir, logDir, segName(idx))
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	// A CRC-valid frame that is not a record ends the walk with an error:
	// it is damage like any other.
	fresh := make(map[string]bool) // jobs whose latest spec this segment set
	off, _ := WalkFrames(data, func(at int64, rec Record) error {
		s.apply(rec, frameAt{seg: idx, off: at})
		if len(rec.Spec) > 0 {
			fresh[rec.JobID] = true
		}
		s.records++
		return nil
	})
	// The records alias data: keep copies of only the specs pending jobs
	// hold.
	for id := range fresh {
		if p := s.pending[id]; p != nil {
			p.Spec = bytes.Clone(p.Spec)
		}
	}
	if off == int64(len(data)) {
		return off, nil
	}
	if !last {
		return s.quarantineSegment(path, data[:off])
	}
	if err := s.fs.Truncate(path, off); err != nil {
		return 0, fmt.Errorf("store: truncating torn tail of %s: %w", filepath.Base(path), err)
	}
	s.truncated = true
	return off, nil
}

// WalkFrames walks the log frames at the start of data as replay does,
// calling fn with each frame's offset and record, whose spec and result
// alias data (DecodeRecord). A frame is a 4-byte
// big-endian payload length, the payload's CRC32 (IEEE) and the payload.
// The walk stops at the first frame that is torn, fails its CRC or claims
// more than the frame ceiling, and returns the offset just past the last
// good frame. A CRC-valid frame that does not decode as a record stops it
// with the decode error, and so does an error from fn; end is then that
// frame's offset.
func WalkFrames(data []byte, fn func(off int64, rec Record) error) (end int64, err error) {
	for int64(len(data))-end >= frameHeader {
		n := int64(binary.BigEndian.Uint32(data[end:]))
		if n > maxRecordBytes || end+frameHeader+n > int64(len(data)) {
			break // torn or insane length
		}
		payload := data[end+frameHeader : end+frameHeader+n]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[end+4:]) {
			break // torn mid-payload or bit rot
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return end, err
		}
		if err := fn(end, rec); err != nil {
			return end, err
		}
		end += frameHeader + n
	}
	return end, nil
}

// quarantineSegment seals a mid-log segment with a bad frame: the damaged
// original moves to <name>.quarantine for forensics (re-sealing the same
// segment overwrites the previous seal — latest damage wins) and the
// valid prefix is rewritten under the original name, so every frame before
// the damage survives this boot and all later ones while replay continues
// into the following segments. Frames after the bad one are lost with the
// seal — the CRC chain cannot vouch for anything past unverifiable bytes.
func (s *Store) quarantineSegment(path string, good []byte) (int64, error) {
	base := filepath.Base(path)
	if err := s.fs.Rename(path, path+quarantineSuffix); err != nil {
		return 0, fmt.Errorf("store: quarantining %s: %w", base, err)
	}
	f, err := s.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("store: rewriting %s after quarantine: %w", base, err)
	}
	if _, err := f.Write(good); err != nil {
		f.Close()
		return 0, fmt.Errorf("store: rewriting %s after quarantine: %w", base, err)
	}
	if err := f.Sync(); err != nil {
		// The repaired prefix is in the file — only power-loss durability
		// is in doubt. Refusing to boot over that would turn a flaky fsync
		// into a wedged store; count it and carry on, like Append does.
		s.syncFails++
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("store: rewriting %s after quarantine: %w", base, err)
	}
	s.quarantined++
	return int64(len(good)), nil
}

// frameAt is where a frame sits in the log: its segment index and its
// offset in that segment.
type frameAt struct {
	seg int
	off int64
}

// apply folds one record, logged at at, into the index. Replay and Append
// both go through it. The first done record carrying a result under a
// hash is the one ResultByHash serves; a terminal record takes its job
// out of pending.
func (s *Store) apply(rec Record, at frameAt) {
	if rec.JobID == "" {
		return
	}
	_, known := s.seen[rec.JobID]
	if !known {
		s.seen[rec.JobID] = len(s.seen)
		if seq, ok := jobSeq(rec.JobID); ok && seq > s.maxSeq {
			s.maxSeq = seq
		}
	}
	if rec.State == StateDone && len(rec.Result) > 0 {
		if _, ok := s.served[rec.Hash]; !ok {
			s.served[rec.Hash] = at
		}
	}
	p := s.pending[rec.JobID]
	switch {
	case Terminal(rec.State):
		delete(s.pending, rec.JobID)
		return
	case p == nil && known && rec.State == "":
		return // a record with no state leaves a finished job finished
	case p == nil:
		p = &Record{JobID: rec.JobID}
		s.pending[rec.JobID] = p
	}
	if rec.Hash != "" {
		p.Hash = rec.Hash
	}
	if rec.State != "" {
		p.State = rec.State
	}
	if len(rec.Spec) > 0 {
		p.Spec = rec.Spec
	}
}

// jobSeq parses the numeric suffix of a job ID of the form j<digits>.
func jobSeq(id string) (int64, bool) {
	if len(id) < 2 || id[0] != 'j' {
		return 0, false
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	return n, err == nil
}

// openActive opens the current segment for appending, creating the first
// one in a fresh store.
func (s *Store) openActive() error {
	if s.segIdx == 0 {
		s.segIdx = 1
		s.segs = 1
		s.segSize = 0
	}
	path := filepath.Join(s.dir, logDir, segName(s.segIdx))
	f, err := s.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Seek to the replayed good length, not the physical end: replay
	// truncated torn tails already, but be explicit about the invariant.
	if _, err := f.Seek(s.segSize, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.active = f
	return nil
}

func segName(idx int) string { return fmt.Sprintf("seg-%06d.log", idx) }

// Append durably adds one record to the log and folds it into the
// index. The active segment rotates once it exceeds the size
// ceiling; a record is never split across segments.
//
// The frame copies rec's bytes as they are: Append parses and validates
// none of them. A record whose payload would exceed maxRecordBytes is
// refused with ErrRecordTooLarge, and nothing is written.
//
// A failed write (disk error, short write) loses the record: Append
// repairs the segment back to the last frame boundary — or, if the repair
// itself fails, abandons the segment and rotates on the next call — and
// returns the error. A failed fsync does NOT lose the record: the frame
// is in the file and will replay after a process crash, so the record is
// applied and counted, and Append returns ErrSyncFailed to flag the
// durability gap.
func (s *Store) Append(rec Record) error {
	frame, err := encodeFrame(rec)
	if err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.damaged || (s.segSize > 0 && s.segSize+int64(len(frame)) > s.opt.MaxSegmentBytes) {
		if err := s.rotateLocked(); err != nil {
			s.appendErrs++
			return err
		}
		s.damaged = false
	}
	if n, err := s.active.Write(frame); err != nil {
		s.appendErrs++
		if n > 0 {
			// A partial frame is on disk. Cut back to the frame boundary so
			// the log stays clean; if even that fails, the segment is
			// abandoned — replay will treat the partial frame as a torn
			// tail (or quarantine it once later segments exist).
			if terr := s.active.Truncate(s.segSize); terr != nil {
				s.damaged = true
			} else if _, serr := s.active.Seek(s.segSize, io.SeekStart); serr != nil {
				s.damaged = true
			}
		}
		return fmt.Errorf("store: append: %w", err)
	}
	var syncErr error
	if s.opt.Sync {
		if err := s.active.Sync(); err != nil {
			s.syncFails++
			syncErr = fmt.Errorf("%w: %w", ErrSyncFailed, err)
		}
	}
	s.apply(rec, frameAt{seg: s.segIdx, off: s.segSize})
	s.segSize += int64(len(frame))
	s.logBytes += int64(len(frame))
	s.records++
	s.appends++
	return syncErr
}

// rotateLocked starts the next segment. It opens the next file first and
// swaps it in only once it is open, so a failed open leaves the current
// segment active and the next Append retries the rotation. The old
// handle's frames are all written when it is closed, so a failed close
// loses nothing. Callers hold s.mu.
func (s *Store) rotateLocked() error {
	path := filepath.Join(s.dir, logDir, segName(s.segIdx+1))
	f, err := s.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	old := s.active
	s.active = f
	s.segIdx++
	s.segs++
	s.segSize = 0
	old.Close()
	return nil
}

// Pending returns the jobs whose latest persisted state is non-terminal —
// the recovery set a restarted daemon re-enqueues — in first-seen order.
// Each record holds the job's ID, hash, latest state and spec.
func (s *Store) Pending() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.pending))
	for _, p := range s.pending {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return s.seen[out[i].JobID] < s.seen[out[j].JobID] })
	return out
}

// ResultByHash returns the result of the first done record in log order
// that carries a result under the spec hash — the disk tier behind the
// service's result index. A hit reads that one frame back from its
// segment and checks its length and CRC, whatever the size of the log. A
// frame that no longer reads back as that record leaves the index, so the
// next done record carrying a result under the hash takes its place.
func (s *Store) ResultByHash(hash string) (json.RawMessage, bool) {
	s.mu.Lock()
	at, ok := s.served[hash]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	if rec, ok := s.readFrame(at); ok && rec.Hash == hash && rec.State == StateDone && len(rec.Result) > 0 {
		return rec.Result, true
	}
	s.mu.Lock()
	if s.served[hash] == at {
		delete(s.served, hash)
	}
	s.mu.Unlock()
	return nil, false
}

// readFrame reads the record of the frame at at back from its segment:
// one open and two reads, the header and then the frame. The record's
// spec and result alias a buffer of its own. ok is false when the frame
// no longer reads back whole.
func (s *Store) readFrame(at frameAt) (rec Record, ok bool) {
	f, err := s.fs.OpenFile(filepath.Join(s.dir, logDir, segName(at.seg)), os.O_RDONLY, 0)
	if err != nil {
		return Record{}, false
	}
	defer f.Close()
	var hdr [frameHeader]byte
	if _, err := f.ReadAt(hdr[:], at.off); err != nil {
		return Record{}, false
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxRecordBytes {
		return Record{}, false
	}
	frame := make([]byte, frameHeader+int(n))
	copy(frame, hdr[:])
	if _, err := f.ReadAt(frame[frameHeader:], at.off+frameHeader); err != nil {
		return Record{}, false
	}
	end, err := WalkFrames(frame, func(_ int64, r Record) error {
		rec = r
		return nil
	})
	return rec, err == nil && end == int64(len(frame))
}

// Scan calls fn with every record in the log, in log order, up to the
// last append; it stops at fn's first error and returns it. It reads each
// segment as replay does, up to its first damaged frame, and skips a
// segment index with no file (a quarantine whose rewrite failed leaves
// one). Each record's spec and result are fn's to keep. Scan is for
// drills and tests: it reads the whole log.
func (s *Store) Scan(fn func(Record) error) error {
	s.mu.Lock()
	last, size := s.segIdx, s.segSize
	s.mu.Unlock()
	for idx := 1; idx <= last; idx++ {
		data, err := s.fs.ReadFile(filepath.Join(s.dir, logDir, segName(idx)))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if idx == last && int64(len(data)) > size {
			data = data[:size]
		}
		// A frame that does not decode is damage, as in replay: the walk
		// stops there and goes on with the next segment.
		var fnErr error
		WalkFrames(data, func(_ int64, rec Record) error {
			rec.Spec, rec.Result = bytes.Clone(rec.Spec), bytes.Clone(rec.Result)
			fnErr = fn(rec)
			return fnErr
		})
		if fnErr != nil {
			return fnErr
		}
	}
	return nil
}

// MaxJobSeq returns the largest numeric suffix over persisted job IDs of
// the form j<digits>, so a recovering service can continue the ID
// sequence without collisions.
func (s *Store) MaxJobSeq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxSeq
}

// checkpointName is a spec hash's blob name: the lower-cased hash plus
// .ckpt. Only a hex hash has one, so every blob the store writes passes
// checkLayout, and a hash read back from the log cannot name a file
// outside ckpt/.
func checkpointName(hash string) (string, bool) {
	name := strings.ToLower(hash) + ".ckpt"
	return name, ckptRe.MatchString(name)
}

// SaveCheckpoint replaces the spec hash's checkpoint blob: blob goes to a
// temp file in ckpt/ that is renamed over the previous one, so the file on
// disk is always a whole checkpoint. Any failure removes the temp file and
// leaves the previous blob in place.
func (s *Store) SaveCheckpoint(hash string, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	name, ok := checkpointName(hash)
	if !ok {
		return fmt.Errorf("store: checkpoint for spec hash %q: not hex", hash)
	}
	dir := filepath.Join(s.dir, ckptDir)
	tmp, err := s.fs.CreateTemp(dir, name+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		s.fs.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if s.opt.Sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			s.fs.Remove(tmp.Name())
			// The blob never became visible under its real name, so unlike
			// Append this is lost data, but the typed error still lets
			// callers attribute it to the fsync path.
			return fmt.Errorf("%w: %w", ErrSyncFailed, err)
		}
	}
	if err := tmp.Close(); err != nil {
		s.fs.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := s.fs.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		s.fs.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.ckpts[name] = struct{}{}
	return nil
}

// LatestCheckpoint returns the checkpoint blob last saved for the spec
// hash, or ErrNoCheckpoint. The blob carries its own round. A hash with no
// blob is answered from the set of blob names, without a read.
func (s *Store) LatestCheckpoint(hash string) ([]byte, error) {
	name, ok := checkpointName(hash)
	if ok {
		s.mu.Lock()
		_, ok = s.ckpts[name]
		s.mu.Unlock()
	}
	if !ok {
		return nil, ErrNoCheckpoint
	}
	blob, err := s.fs.ReadFile(filepath.Join(s.dir, ckptDir, name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoCheckpoint
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return blob, nil
}

// DropCheckpoints removes the spec hash's checkpoint blob — called once a
// job reaches a terminal state and resume is moot. A hash with no blob
// removes nothing.
func (s *Store) DropCheckpoints(hash string) {
	name, ok := checkpointName(hash)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.ckpts[name]; !ok {
		return
	}
	if s.fs.Remove(filepath.Join(s.dir, ckptDir, name)) == nil {
		delete(s.ckpts, name)
	}
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Segments:            s.segs,
		Records:             s.records,
		LogBytes:            s.logBytes,
		Jobs:                len(s.seen),
		Pending:             len(s.pending),
		Checkpoints:         int64(len(s.ckpts)),
		Appends:             s.appends,
		TailTruncated:       s.truncated,
		QuarantinedSegments: s.quarantined,
		AppendErrors:        s.appendErrs,
		SyncFailures:        s.syncFails,
	}
}

// Close flushes and closes the active segment. Further Appends fail with
// ErrClosed; queries keep working on the index, and ResultByHash and Scan
// still read the segment files.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.active.Sync(); err != nil {
		s.syncFails++
		s.active.Close()
		return fmt.Errorf("%w: %w", ErrSyncFailed, err)
	}
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
