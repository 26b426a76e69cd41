package service

import (
	"slices"
	"strconv"
	"time"

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
	dst = slices.Grow(dst, j.renderSize())
	dst = append(dst, `{"id":`...)
	dst = job.AppendString(dst, j.ID)
	dst = append(dst, `,"hash":`...)
	dst = job.AppendString(dst, j.Hash)
	dst = append(dst, `,"spec":`...)
	dst = append(dst, spec...)
	dst = append(dst, `,"state":`...)
	dst = job.AppendString(dst, string(j.State))
	if j.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = job.AppendString(dst, j.Error)
	}
	if j.CacheHit {
		dst = append(dst, `,"cache_hit":true`...)
	}
	if j.DedupOf != "" {
		dst = append(dst, `,"dedup_of":`...)
		dst = job.AppendString(dst, j.DedupOf)
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

// renderSize bounds the length of j's body, so rendering it takes one
// allocation whatever n is: everything but the spec, the result and the
// strings fits in the fixed slack.
func (j *Job) renderSize() int {
	return len(j.Spec) + len(j.Result) + len(j.ID) + len(j.Hash) + len(j.Error) + len(j.DedupOf) + 256
}

// jobsSize bounds the length of the JSON array of jobs, plus the newline
// a response ends with.
func jobsSize(jobs []*Job) int {
	n := len("[]\n")
	for _, j := range jobs {
		n += len(",null")
		if j != nil {
			n += j.renderSize()
		}
	}
	return n
}

// AppendJSON appends b's compact JSON encoding to dst, byte-identical to
// json.Marshal(b), rendering each member as Job.AppendJSON does. The body
// takes one allocation, whatever the members' sizes.
func (b *Batch) AppendJSON(dst []byte) ([]byte, error) {
	dst = slices.Grow(dst, len(b.ID)+128+jobsSize(b.Jobs))
	dst = append(dst, `{"id":`...)
	dst = job.AppendString(dst, b.ID)
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
// json.Marshal(jobs), rendering each job as Job.AppendJSON does. It grows
// dst once, by enough for every member and the response's newline.
func AppendJobsJSON(dst []byte, jobs []*Job) ([]byte, error) {
	if jobs == nil {
		return append(dst, "null"...), nil
	}
	dst = slices.Grow(dst, jobsSize(jobs))
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
	dst = job.AppendString(dst, p.JobID)
	dst = append(dst, `,"state":`...)
	dst = job.AppendString(dst, string(p.State))
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
		dst = job.AppendString(dst, p.Error)
	}
	return append(dst, '}')
}

// appendTime appends t as encoding/json writes a time.Time.
func appendTime(dst []byte, t time.Time) ([]byte, error) {
	b, err := t.MarshalJSON()
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}
