package store

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreRecord hammers the replay path from both ends: a fuzzed record
// must survive an append → reopen round trip intact, and the fuzzed raw
// tail appended after it must never panic the replayer — it either parses
// or is truncated as a torn tail.
// FuzzNonFinalSegmentDamage aims the fuzzer at the quarantine path: the
// suffix of a middle segment is replaced by fuzzed bytes at a fuzzed
// offset. Open must never panic or refuse to boot — clean frames replay,
// anything unverifiable is sealed into a .quarantine file — and jobs
// recorded in segments after the victim always survive.
func FuzzNonFinalSegmentDamage(f *testing.F) {
	// A torn tail mid-log: a length prefix promising more bytes than exist.
	f.Add(uint16(40), []byte{0, 0, 0, 40, 9, 9, 9, 9})
	// A CRC-valid payload behind a garbage length prefix (way past the
	// record ceiling) — the checksum is honest, the length lies.
	payload := []byte(`{"job_id":"jfuzz","state":"queued"}`)
	hdr := make([]byte, frameHeader)
	binary.BigEndian.PutUint32(hdr[:4], 0xffffffff)
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	f.Add(uint16(0), append(hdr, payload...))
	// A plausible length over a corrupt checksum.
	bad := make([]byte, frameHeader)
	binary.BigEndian.PutUint32(bad[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(bad[4:], 0xdeadbeef)
	f.Add(uint16(12), append(bad, payload...))
	f.Fuzz(func(t *testing.T, off uint16, blob []byte) {
		const records = 12
		dir := t.TempDir()
		segs := fillSegments(t, dir, records)
		victim := segs[1]
		data, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		pos := int(off) % (len(data) + 1)
		if err := os.WriteFile(victim, append(data[:pos:pos], blob...), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen with damaged mid segment: %v", err)
		}
		defer s.Close()
		// The final record lives past the victim segment; quarantine must
		// never take later segments down with it.
		if _, ok := scanJob(t, s, jobID(records-1)); !ok {
			t.Fatalf("job %s from a later segment lost to quarantine", jobID(records-1))
		}
	})
}

func FuzzStoreRecord(f *testing.F) {
	f.Add("j000001", "deadbeef", StateQueued, `{"n":7}`, "", []byte{})
	f.Add("j000042", "cafe", StateDone, `{"kind":"avg"}`, "", []byte{0, 0, 0, 4, 1, 2, 3, 4})
	f.Add("j000002", "ffff", StateFailed, ``, "agent panicked", []byte("garbage tail"))
	f.Add("", "", "", ``, "", []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, id, hash, state, spec, errMsg string, tail []byte) {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec := Record{JobID: id, Hash: hash, State: state, Error: errMsg}
		if json.Valid([]byte(spec)) {
			rec.Spec = json.RawMessage(spec)
		}
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Crash damage: arbitrary bytes after the last good frame.
		seg := filepath.Join(dir, "log", "seg-000001.log")
		fh, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(tail); err != nil {
			t.Fatal(err)
		}
		fh.Close()

		r, err := Open(dir, Options{})
		if err != nil {
			// The fuzzed tail can only ever be torn (truncated), never
			// fatal: it sits in the final segment.
			t.Fatalf("reopen with fuzzed tail: %v", err)
		}
		defer r.Close()
		if id == "" {
			return // blank IDs are ignored by design
		}
		// The fuzzed tail may happen to be valid frames that overlay the
		// record; only its pre-tail field survival is guaranteed when the
		// tail failed to parse.
		if r.Stats().Records >= 1 {
			v, ok := scanJob(t, r, id)
			if !ok {
				t.Fatalf("record for %q lost on replay", id)
			}
			if r.Stats().Records == 1 {
				if v.Hash != hash || v.State != state || v.Error != errMsg {
					t.Fatalf("replayed view %+v diverges from record %+v", v, rec)
				}
			}
		}
	})
}
