// Package store is anonnetd's durable job store: an append-only,
// spec-hash-addressed log of job records plus a directory of engine
// checkpoint blobs. The log survives crashes — records are
// length-prefixed JSON frames with a per-record CRC32, segments rotate at
// a size ceiling, and replay truncates a torn tail (a crash mid-append)
// while sealing a segment corrupted anywhere else to a .quarantine
// forensic copy, preserving its valid prefix and replaying the segments
// after it (Options.StrictReplay restores fail-stop). Checkpoints are written
// atomically (tmp + rename) under deterministic names derived from the
// canonical spec hash and the round, so a restarted daemon can find the
// latest checkpoint of any interrupted job without an index.
//
// Layout under the data dir:
//
//	log/seg-000001.log   append-only record segments
//	ckpt/<hash16>-r00000042.ckpt   engine checkpoint blobs
//
// The store knows nothing about the service's entry bookkeeping or the
// engines' checkpoint encoding; it persists opaque JSON and opaque blobs.
package store

import (
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
	// ErrCorrupt is returned by Open under Options.StrictReplay when a
	// non-final segment fails framing or checksum validation. The default
	// replay quarantines the damaged segment instead; a torn tail in the
	// final segment is expected crash damage and is truncated either way.
	ErrCorrupt = errors.New("store: corrupt segment")
	// ErrClosed is returned by mutating calls after Close.
	ErrClosed = errors.New("store: closed")
	// ErrNoCheckpoint is returned by LatestCheckpoint when no blob exists
	// for the spec hash.
	ErrNoCheckpoint = errors.New("store: no checkpoint")
	// ErrSyncFailed marks an append whose bytes reached the file but whose
	// fsync failed: the record will replay after a process crash, yet
	// durability against power loss is not guaranteed. Callers (the
	// service's circuit breaker) use it to tell lost-durability from
	// lost-data — an append failing with any other error wrote nothing
	// usable.
	ErrSyncFailed = errors.New("store: fsync failed")
)

// Record is one append-only log entry: a job state transition. The first
// record of a job carries its spec; the done record carries its result.
// Later records for the same job ID overlay the earlier ones during
// replay, so the log compacts naturally into a map of latest states.
type Record struct {
	JobID string `json:"job_id"`
	// Hash is the canonical spec hash (the result address).
	Hash  string `json:"hash"`
	State string `json:"state"`
	// Spec is the validated spec JSON, present on the first record.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Result is the result JSON, present on the done record.
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	// Round is the last checkpointed round, present on interrupted
	// records so recovery can report where the job will resume.
	Round int `json:"round,omitempty"`
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

// JobView is the replayed, merged view of one job: the latest state plus
// the spec and (when done) result captured along the way.
type JobView struct {
	ID     string
	Hash   string
	State  string
	Spec   json.RawMessage
	Result json.RawMessage
	Error  string
	Round  int
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
	// StrictReplay restores the pre-quarantine contract: a bad frame in a
	// non-final segment fails Open with ErrCorrupt instead of sealing the
	// damaged segment to .quarantine and replaying the rest. For
	// operators who prefer refusing to boot over booting with a sealed
	// segment.
	StrictReplay bool
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

	jobs  map[string]*jobView
	order []string // job IDs in first-seen log order
	// served indexes ResultByHash: spec hash → the earliest job in log
	// order that is done with a result payload under that hash.
	served map[string]*jobView

	records     int64
	logBytes    int64
	appends     int64
	ckptSaves   int64
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
	// maxRecordBytes bounds a single record frame; larger lengths in a
	// segment header are treated as corruption, not allocation requests.
	maxRecordBytes = 16 << 20
)

// quarantineSuffix seals a segment whose middle failed validation: the
// damaged original is preserved for forensics under this suffix while the
// valid prefix is restored under the segment's own name.
const quarantineSuffix = ".quarantine"

var (
	segRe  = regexp.MustCompile(`^seg-(\d{6})\.log$`)
	qsegRe = regexp.MustCompile(`^seg-(\d{6})\.log\.quarantine$`)
	ckptRe = regexp.MustCompile(`^[0-9a-f]{1,16}-r\d{8}\.ckpt$`)
)

// Open opens (or initializes) the store in dir. A fresh dir is laid out;
// an existing one is replayed — every segment is CRC-verified, a torn
// final record is truncated, and all job records are merged into the
// in-memory view. A dir holding anything the store does not recognize is
// rejected with ErrDirtyDir rather than guessed at.
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
	s := &Store{
		dir:    dir,
		opt:    opt,
		fs:     fs,
		jobs:   make(map[string]*jobView),
		served: make(map[string]*jobView),
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
		return segRe.MatchString(name) || qsegRe.MatchString(name)
	}); err != nil {
		return err
	}
	return checkNames(fs, filepath.Join(dir, ckptDir), func(name string) bool {
		// Leftover .tmp files from a crash mid-save are cleaned by
		// replay, not rejected.
		return ckptRe.MatchString(name) || strings.HasSuffix(name, ".tmp")
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

// replay loads every segment, verifying frames and merging records. A
// torn tail — a partial frame at the end of the final segment — is
// truncated in place; the same damage anywhere else is ErrCorrupt.
func (s *Store) replay() error {
	names, err := s.segments()
	if err != nil {
		return err
	}
	s.segs = len(names)
	for i, name := range names {
		path := filepath.Join(s.dir, logDir, name)
		last := i == len(names)-1
		good, err := s.replaySegment(path, last)
		if err != nil {
			return err
		}
		if last {
			idx, _ := strconv.Atoi(segRe.FindStringSubmatch(name)[1])
			s.segIdx = idx
			s.segSize = good
		}
		s.logBytes += good
	}
	// Sweep checkpoint temp files left by a crash mid-save, and count the
	// surviving blobs.
	entries, err := s.fs.ReadDir(filepath.Join(s.dir, ckptDir))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			s.fs.Remove(filepath.Join(s.dir, ckptDir, e.Name()))
			continue
		}
		s.ckptSaves++
	}
	return nil
}

// replaySegment reads one segment, returning the byte offset of the last
// good frame. In the final segment a bad tail is truncated; elsewhere the
// damaged segment is quarantined (or, under StrictReplay, fatal).
func (s *Store) replaySegment(path string, last bool) (int64, error) {
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	off := int64(0)
	for int64(len(data))-off >= frameHeader {
		n := int64(binary.BigEndian.Uint32(data[off:]))
		sum := binary.BigEndian.Uint32(data[off+4:])
		if n > maxRecordBytes || off+frameHeader+n > int64(len(data)) {
			break // torn or insane length
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break // torn mid-payload or bit rot
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break // framing intact but payload is not a record
		}
		s.apply(rec)
		s.records++
		off += frameHeader + n
	}
	if off == int64(len(data)) {
		return off, nil
	}
	if !last {
		if s.opt.StrictReplay {
			return 0, fmt.Errorf("%w: %s has a bad frame at offset %d (not the final segment — refusing to repair under strict replay)",
				ErrCorrupt, filepath.Base(path), off)
		}
		return s.quarantineSegment(path, data[:off])
	}
	if err := s.fs.Truncate(path, off); err != nil {
		return 0, fmt.Errorf("store: truncating torn tail of %s: %w", filepath.Base(path), err)
	}
	s.truncated = true
	return off, nil
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

// jobView is a job's merged view with its position in s.order.
type jobView struct {
	JobView
	pos int
}

// servable reports whether ResultByHash may serve v's result.
func (v *jobView) servable() bool { return v.State == StateDone && len(v.Result) > 0 }

// apply merges one record into the replayed view and keeps the
// ResultByHash index current. Replay and Append both go through it.
func (s *Store) apply(rec Record) {
	if rec.JobID == "" {
		return
	}
	v, ok := s.jobs[rec.JobID]
	if !ok {
		v = &jobView{JobView: JobView{ID: rec.JobID}, pos: len(s.order)}
		s.jobs[rec.JobID] = v
		s.order = append(s.order, rec.JobID)
	}
	wasServable, oldHash := v.servable(), v.Hash
	if rec.Hash != "" {
		v.Hash = rec.Hash
	}
	if rec.State != "" {
		v.State = rec.State
	}
	if len(rec.Spec) > 0 {
		v.Spec = rec.Spec
	}
	if len(rec.Result) > 0 {
		v.Result = rec.Result
	}
	v.Error = rec.Error
	if rec.Round > 0 {
		v.Round = rec.Round
	}
	if wasServable && s.served[oldHash] == v && (!v.servable() || v.Hash != oldHash) {
		s.reindex(oldHash)
	}
	if v.servable() {
		if cur, ok := s.served[v.Hash]; !ok || v.pos < cur.pos {
			s.served[v.Hash] = v
		}
	}
}

// reindex points served[hash] at the earliest servable job under hash, or
// drops the entry — the scan the index saves. It runs only when a record
// takes the indexed job off done or onto another hash, which the service
// never writes.
func (s *Store) reindex(hash string) {
	delete(s.served, hash)
	for _, id := range s.order {
		if v := s.jobs[id]; v.Hash == hash && v.servable() {
			s.served[hash] = v
			return
		}
	}
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

// Append durably adds one record to the log and merges it into the
// in-memory view. The active segment rotates once it exceeds the size
// ceiling; a record is never split across segments.
//
// A failed write (disk error, short write) loses the record: Append
// repairs the segment back to the last frame boundary — or, if the repair
// itself fails, abandons the segment and rotates on the next call — and
// returns the error. A failed fsync does NOT lose the record: the frame
// is in the file and will replay after a process crash, so the record is
// applied and counted, and Append returns ErrSyncFailed to flag the
// durability gap.
func (s *Store) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)

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
	if s.opt.Sync {
		if err := s.active.Sync(); err != nil {
			s.syncFails++
			s.segSize += int64(len(frame))
			s.logBytes += int64(len(frame))
			s.records++
			s.appends++
			s.apply(rec)
			return fmt.Errorf("%w: %w", ErrSyncFailed, err)
		}
	}
	s.segSize += int64(len(frame))
	s.logBytes += int64(len(frame))
	s.records++
	s.appends++
	s.apply(rec)
	return nil
}

// rotateLocked closes the active segment and starts the next one.
// Callers hold s.mu.
func (s *Store) rotateLocked() error {
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.segIdx++
	s.segs++
	s.segSize = 0
	path := filepath.Join(s.dir, logDir, segName(s.segIdx))
	f, err := s.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.active = f
	return nil
}

// Job returns the merged view of one job, or false.
func (s *Store) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return v.JobView, true
}

// Jobs returns merged views of every job in first-seen order.
func (s *Store) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].JobView)
	}
	return out
}

// Pending returns the jobs whose latest persisted state is non-terminal —
// the recovery set a restarted daemon re-enqueues.
func (s *Store) Pending() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []JobView
	for _, id := range s.order {
		if v := s.jobs[id]; !Terminal(v.State) {
			out = append(out, v.JobView)
		}
	}
	return out
}

// ResultByHash returns the persisted result JSON of the earliest job in
// log order that is done with a result under the given spec hash — the
// disk tier behind the service's LRU. It is one index lookup, whatever
// the size of the log.
func (s *Store) ResultByHash(hash string) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.served[hash]; ok {
		return v.Result, true
	}
	return nil, false
}

// MaxJobSeq returns the largest numeric suffix over persisted job IDs of
// the form j<digits>, so a recovering service can continue the ID
// sequence without collisions.
func (s *Store) MaxJobSeq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max int64
	for id := range s.jobs {
		if len(id) < 2 || id[0] != 'j' {
			continue
		}
		if n, err := strconv.ParseInt(id[1:], 10, 64); err == nil && n > max {
			max = n
		}
	}
	return max
}

// hashPrefix is the checkpoint-name fragment of a spec hash. Spec hashes
// are hex SHA-256; sixteen characters keep names short while making a
// collision within one data dir vanishingly unlikely.
func hashPrefix(hash string) string {
	h := strings.ToLower(hash)
	if len(h) > 16 {
		h = h[:16]
	}
	if h == "" {
		h = "0"
	}
	return h
}

// CheckpointName is the deterministic blob name for a spec hash at a
// round — pure function of its inputs, so independent daemons agree on
// it.
func CheckpointName(hash string, round int) string {
	return fmt.Sprintf("%s-r%08d.ckpt", hashPrefix(hash), round)
}

// SaveCheckpoint atomically writes an engine checkpoint blob for the spec
// hash at round: temp file, then rename. Earlier checkpoints of the same
// hash are pruned after the new one is durable, keeping exactly one blob
// per job on disk.
func (s *Store) SaveCheckpoint(hash string, round int, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	dir := filepath.Join(s.dir, ckptDir)
	name := CheckpointName(hash, round)
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
	s.ckptSaves++
	s.pruneCheckpointsLocked(hash, round)
	return nil
}

// pruneCheckpointsLocked removes blobs of hash at rounds other than keep
// (keep < 0 removes all). Callers hold s.mu.
func (s *Store) pruneCheckpointsLocked(hash string, keep int) {
	prefix := hashPrefix(hash) + "-r"
	entries, err := s.fs.ReadDir(filepath.Join(s.dir, ckptDir))
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !ckptRe.MatchString(name) {
			continue
		}
		round, err := strconv.Atoi(strings.TrimSuffix(name[len(prefix):], ".ckpt"))
		if err != nil || round == keep {
			continue
		}
		if s.fs.Remove(filepath.Join(s.dir, ckptDir, name)) == nil {
			s.ckptSaves--
		}
	}
}

// LatestCheckpoint returns the highest-round checkpoint blob saved for
// the spec hash, or ErrNoCheckpoint.
func (s *Store) LatestCheckpoint(hash string) (blob []byte, round int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prefix := hashPrefix(hash) + "-r"
	entries, err := s.fs.ReadDir(filepath.Join(s.dir, ckptDir))
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	best := -1
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !ckptRe.MatchString(name) {
			continue
		}
		r, err := strconv.Atoi(strings.TrimSuffix(name[len(prefix):], ".ckpt"))
		if err == nil && r > best {
			best = r
		}
	}
	if best < 0 {
		return nil, 0, fmt.Errorf("%w for hash %s", ErrNoCheckpoint, hashPrefix(hash))
	}
	data, err := s.fs.ReadFile(filepath.Join(s.dir, ckptDir, CheckpointName(hash, best)))
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	return data, best, nil
}

// DropCheckpoints removes every checkpoint blob of the spec hash — called
// once a job reaches a terminal state and resume is moot.
func (s *Store) DropCheckpoints(hash string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneCheckpointsLocked(hash, -1)
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	pending := 0
	for _, v := range s.jobs {
		if !Terminal(v.State) {
			pending++
		}
	}
	return Stats{
		Segments:            s.segs,
		Records:             s.records,
		LogBytes:            s.logBytes,
		Jobs:                len(s.jobs),
		Pending:             pending,
		Checkpoints:         s.ckptSaves,
		Appends:             s.appends,
		TailTruncated:       s.truncated,
		QuarantinedSegments: s.quarantined,
		AppendErrors:        s.appendErrs,
		SyncFailures:        s.syncFails,
	}
}

// Dir returns the data directory the store was opened on.
func (s *Store) Dir() string { return s.dir }

// Close flushes and closes the active segment. Further Appends fail with
// ErrClosed; queries keep working on the in-memory view.
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
