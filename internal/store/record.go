package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
)

// recordV1 opens every record payload this build writes. Earlier builds
// wrote a record as a JSON object, whose first byte is '{', so the first
// byte tells the two apart.
//
// After the version byte a v1 payload holds the job ID, hash, state and
// error, each as a uvarint length and its bytes, then Unix as a varint,
// then the spec and the result, again each as a uvarint length and its
// bytes. Every field round-trips byte for byte, and the spec and result
// are copied as given: Append validates nothing.
const recordV1 = 0x01

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// fieldLen is the encoded length of a field of n bytes.
func fieldLen(n int) int { return uvarintLen(uint64(n)) + n }

func appendField[T ~string | ~[]byte](dst []byte, b T) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// encodeFrame returns rec as one log frame — the payload length, its
// CRC32 and the v1 payload — in a single allocation of exactly its size.
// A payload over maxRecordBytes is refused with ErrRecordTooLarge,
// because replay would take its length for damage.
func encodeFrame(rec Record) ([]byte, error) {
	zigzag := uint64(rec.Unix<<1) ^ uint64(rec.Unix>>63)
	size := 1 + fieldLen(len(rec.JobID)) + fieldLen(len(rec.Hash)) + fieldLen(len(rec.State)) +
		fieldLen(len(rec.Error)) + uvarintLen(zigzag) + fieldLen(len(rec.Spec)) + fieldLen(len(rec.Result))
	if size > maxRecordBytes {
		return nil, fmt.Errorf("%w: job %q is %d bytes, the ceiling is %d", ErrRecordTooLarge, rec.JobID, size, maxRecordBytes)
	}
	frame := make([]byte, frameHeader, frameHeader+size)
	frame = append(frame, recordV1)
	frame = appendField(frame, rec.JobID)
	frame = appendField(frame, rec.Hash)
	frame = appendField(frame, rec.State)
	frame = appendField(frame, rec.Error)
	frame = binary.AppendVarint(frame, rec.Unix)
	frame = appendField(frame, rec.Spec)
	frame = appendField(frame, rec.Result)
	payload := frame[frameHeader:]
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	return frame, nil
}

// DecodeRecord decodes one record payload: a v1 record of this build or
// the JSON record of an earlier one. A v1 record's spec and result alias
// payload, so a caller that keeps them past payload's life copies them;
// an empty one decodes as nil. Any other first byte, a truncated field or
// trailing bytes are an error.
func DecodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, errors.New("store: empty record")
	}
	switch payload[0] {
	case '{':
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return Record{}, fmt.Errorf("store: legacy record: %w", err)
		}
		return rec, nil
	case recordV1:
		return decodeV1(payload[1:])
	}
	return Record{}, fmt.Errorf("store: unknown record version %#x", payload[0])
}

// decodeV1 decodes the fields after a v1 record's version byte.
func decodeV1(b []byte) (Record, error) {
	bad := false
	field := func() []byte {
		n, k := binary.Uvarint(b)
		if bad || k <= 0 || n > uint64(len(b)-k) {
			bad = true
			return nil
		}
		v := b[k : k+int(n)]
		b = b[k+int(n):]
		return v
	}
	payload := func() []byte {
		if v := field(); len(v) > 0 {
			return v
		}
		return nil
	}
	var rec Record
	rec.JobID = string(field())
	rec.Hash = string(field())
	rec.State = string(field())
	rec.Error = string(field())
	if !bad {
		var k int
		rec.Unix, k = binary.Varint(b)
		if k <= 0 {
			bad = true
		} else {
			b = b[k:]
		}
	}
	rec.Spec = payload()
	rec.Result = payload()
	if bad || len(b) > 0 {
		return Record{}, errors.New("store: malformed v1 record")
	}
	return rec, nil
}
