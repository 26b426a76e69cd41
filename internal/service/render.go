package service

import (
	"encoding/json"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"

	"anonnet/internal/job"
)

// The renderers below write exactly the compact JSON encoding/json writes
// for the same value, but copy the spec and result bytes instead of
// encoding them again. render_test.go and cmd/anonnetd's
// TestResponsesMatchEncodingJSON hold them to encoding/json.

// AppendJSON appends j's compact JSON encoding to dst, byte-identical to
// json.Marshal(j) when Spec and Result hold compact JSON, as the service's
// snapshots do. It copies the spec and result bytes.
func (j *Job) AppendJSON(dst []byte) ([]byte, error) {
	spec := []byte(j.Spec)
	if spec == nil {
		spec = []byte("null")
	}
	// One allocation for the body, whatever n is: everything but the
	// spec, the result and the strings fits in the fixed slack.
	dst = slices.Grow(dst, len(spec)+len(j.Result)+len(j.ID)+len(j.Hash)+len(j.Error)+len(j.DedupOf)+256)
	dst = append(dst, `{"id":`...)
	dst = appendString(dst, j.ID)
	dst = append(dst, `,"hash":`...)
	dst = appendString(dst, j.Hash)
	dst = append(dst, `,"spec":`...)
	dst = append(dst, spec...)
	dst = append(dst, `,"state":`...)
	dst = appendString(dst, string(j.State))
	if j.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, j.Error)
	}
	if j.CacheHit {
		dst = append(dst, `,"cache_hit":true`...)
	}
	if j.DedupOf != "" {
		dst = append(dst, `,"dedup_of":`...)
		dst = appendString(dst, j.DedupOf)
	}
	if len(j.Result) > 0 {
		dst = append(dst, `,"result":`...)
		dst = append(dst, j.Result...)
	}
	var err error
	dst = append(dst, `,"submitted":`...)
	if dst, err = appendTime(dst, j.Submitted); err != nil {
		return dst, err
	}
	if j.Started != nil {
		dst = append(dst, `,"started":`...)
		if dst, err = appendTime(dst, *j.Started); err != nil {
			return dst, err
		}
	}
	if j.Finished != nil {
		dst = append(dst, `,"finished":`...)
		if dst, err = appendTime(dst, *j.Finished); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// AppendJSON appends b's compact JSON encoding to dst, byte-identical to
// json.Marshal(b), rendering each member as Job.AppendJSON does.
func (b *Batch) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = appendString(dst, b.ID)
	dst = append(dst, `,"jobs":`...)
	dst, err := AppendJobsJSON(dst, b.Jobs)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"done":`...)
	dst = strconv.AppendInt(dst, int64(b.Done), 10)
	dst = append(dst, `,"failed":`...)
	dst = strconv.AppendInt(dst, int64(b.Failed), 10)
	dst = append(dst, `,"cache_hits":`...)
	dst = strconv.AppendInt(dst, int64(b.CacheHits), 10)
	if b.Deduped != 0 {
		dst = append(dst, `,"deduped":`...)
		dst = strconv.AppendInt(dst, int64(b.Deduped), 10)
	}
	return append(dst, '}'), nil
}

// AppendJobsJSON appends the JSON array of jobs to dst, byte-identical to
// json.Marshal(jobs), rendering each job as Job.AppendJSON does.
func AppendJobsJSON(dst []byte, jobs []*Job) ([]byte, error) {
	if jobs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, j := range jobs {
		if i > 0 {
			dst = append(dst, ',')
		}
		if j == nil {
			dst = append(dst, "null"...)
			continue
		}
		var err error
		if dst, err = j.AppendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// AppendJSON appends p's compact JSON encoding to dst, byte-identical to
// json.Marshal(p) when Outputs holds compact JSON, as the service's events
// do. It copies the outputs bytes.
func (p Progress) AppendJSON(dst []byte) []byte {
	dst = slices.Grow(dst, len(p.Outputs)+len(p.JobID)+len(p.Error)+128)
	dst = append(dst, `{"job_id":`...)
	dst = appendString(dst, p.JobID)
	dst = append(dst, `,"state":`...)
	dst = appendString(dst, string(p.State))
	if p.Round != 0 {
		dst = append(dst, `,"round":`...)
		dst = strconv.AppendInt(dst, int64(p.Round), 10)
	}
	if len(p.Outputs) > 0 {
		dst = append(dst, `,"outputs":`...)
		dst = append(dst, p.Outputs...)
	}
	dst = append(dst, `,"max_err":`...)
	dst = job.AppendF64(dst, p.MaxErr)
	if p.Done {
		dst = append(dst, `,"done":true`...)
	}
	if p.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, p.Error)
	}
	return append(dst, '}')
}

// appendString appends s as encoding/json writes a string. IDs, hashes
// and states are plain ASCII and are copied as they are; anything that
// needs an escape, an HTML-safe form or a UTF-8 check goes through
// encoding/json itself.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendTime appends t as encoding/json writes a time.Time.
func appendTime(dst []byte, t time.Time) ([]byte, error) {
	b, err := t.MarshalJSON()
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}
