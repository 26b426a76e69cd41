package service

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"

	"anonnet/internal/job"
)

// encodedResult is a finished run's result together with its JSON
// encoding, made once per execution — by runOne before it settles, or read
// back from the log on a disk-tier hit — and shared read-only by the
// execution's jobs, the LRU, the done record and every response that
// carries the result.
type encodedResult struct {
	res     *job.Result
	json    []byte // job.AppendResult(nil, res), or the log's copy of it
	outputs []byte // the outputs array inside json; nil when empty
}

func encodeResult(res *job.Result) *encodedResult {
	// The encoder reserves by estimate; keep an exact-size copy, since the
	// bytes live as long as the job, the LRU entry and the store's view.
	b := bytes.Clone(job.AppendResult(nil, res))
	return &encodedResult{res: res, json: b, outputs: job.OutputsJSON(b)}
}

// The renderers below write exactly the compact JSON encoding/json writes
// for the same value, but copy the spec and result bytes instead of
// encoding them again. render_test.go and cmd/anonnetd's
// TestResponsesMatchEncodingJSON hold them to encoding/json.

// AppendJSON appends j's compact JSON encoding to dst, byte-identical to
// json.Marshal(j). On a snapshot from the service it copies the spec and
// result as compile and settle encoded them, so Spec must not be modified
// on such a snapshot; a replaced Result is encoded afresh.
func (j *Job) AppendJSON(dst []byte) ([]byte, error) {
	spec := j.specJSON
	if spec == nil {
		var err error
		if spec, err = json.Marshal(j.Spec); err != nil {
			return dst, err
		}
	}
	var result []byte
	if j.encoded != nil && j.encoded.res == j.Result {
		result = j.encoded.json
	}
	// One allocation for the body, whatever n is: everything but the
	// spec, the result and the strings fits in the fixed slack.
	dst = slices.Grow(dst, len(spec)+len(result)+len(j.ID)+len(j.Hash)+len(j.Error)+len(j.DedupOf)+256)
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
	if j.Result != nil {
		dst = append(dst, `,"result":`...)
		if result != nil {
			dst = append(dst, result...)
		} else {
			dst = job.AppendResult(dst, j.Result)
		}
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
// json.Marshal(p). A terminal event from TerminalProgress copies its
// outputs from the result's encoding.
func (p Progress) AppendJSON(dst []byte) []byte {
	dst = slices.Grow(dst, len(p.outputsJSON)+len(p.JobID)+len(p.Error)+128)
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
		if p.outputsJSON != nil {
			dst = append(dst, p.outputsJSON...)
		} else {
			dst = job.AppendVector(dst, p.Outputs)
		}
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
