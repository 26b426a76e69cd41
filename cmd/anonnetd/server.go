package main

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"anonnet/internal/job"
	"anonnet/internal/metrics"
	"anonnet/internal/quota"
	"anonnet/internal/service"
)

// maxSpecBytes bounds a submitted spec body (a 4096-agent value vector is
// well under this).
const maxSpecBytes = 1 << 20

// server wraps a service.Service in the HTTP/JSON API.
type server struct {
	svc    *service.Service
	quota  *quota.Limiter // nil: quotas disabled
	jitter jitterFunc
	start  time.Time
}

// jitterFunc perturbs a Retry-After estimate so a synchronized client
// fleet spreads its retries instead of stampeding back in lockstep.
type jitterFunc func(secs int) int

// newJitter builds the ±20% Retry-After jitter on src: each call draws
// once and scales the estimate by a uniform factor in [0.8, 1.2), never
// below one second. Injecting a fixed-seed source makes the jitter
// deterministic for tests; production uses a time-seeded one.
func newJitter(src rand.Source) jitterFunc {
	var mu sync.Mutex
	rng := rand.New(src)
	return func(secs int) int {
		mu.Lock()
		u := rng.Float64()
		mu.Unlock()
		j := int(math.Round(float64(secs) * (0.8 + 0.4*u)))
		if j < 1 {
			j = 1
		}
		return j
	}
}

// muxOptions selects the optional API surfaces.
type muxOptions struct {
	// pprof mounts /debug/pprof/ (the -pprof flag).
	pprof bool
	// metrics, when non-nil, is served at /metrics in the Prometheus text
	// format.
	metrics *metrics.Registry
	// quota, when non-nil, rate-limits the submit paths per X-Tenant.
	quota *quota.Limiter
	// jitter perturbs Retry-After values on 503 responses (nil: a
	// time-seeded ±20% jitter; tests inject a fixed-seed one).
	jitter jitterFunc
}

// newMux routes the API (version 1, under /v1/):
//
//	POST   /v1/jobs             submit a job.Spec, 202 (or 200 on cache hit)
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status + result
//	DELETE /v1/jobs/{id}        cancel (queued or running)
//	GET    /v1/jobs/{id}/stream NDJSON round-by-round progress
//	POST   /v1/batch            submit a parameter sweep, all-or-nothing
//	GET    /v1/batch/{id}       batch aggregate status
//	GET    /v1/stats            service counters
//	GET    /v1/readyz           readiness (503 + Retry-After when shedding)
//	GET    /healthz             liveness
//	GET    /metrics             Prometheus text format — only with opt.metrics
//	GET    /debug/vars          expvar (the runtime's memstats and cmdline)
//	GET    /debug/pprof/…       runtime profiles — only with opt.pprof
//
// The historical unversioned paths (/jobs…, /stats) answer 301 to their
// /v1/ form. Errors share one problem-details shape:
// {"code": ..., "message": ..., "detail": ...}.
//
// opt.pprof mounts the net/http/pprof endpoints (CPU, heap, goroutine,
// …) under /debug/pprof/. It is off by default — profiles expose internals
// and cost CPU while sampling — and opted into with the -pprof flag when
// diagnosing a live daemon; without it the paths 404. opt.quota puts the
// submit paths behind per-tenant token buckets (the X-Tenant header; see
// handleSubmit).
func newMux(svc *service.Service, opt muxOptions) *http.ServeMux {
	jit := opt.jitter
	if jit == nil {
		jit = newJitter(rand.NewSource(time.Now().UnixNano()))
	}
	s := &server{svc: svc, quota: opt.quota, jitter: jit, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/batch/{id}", s.handleGetBatch)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/readyz", s.handleReady)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /debug/vars", expvar.Handler())
	if opt.metrics != nil {
		mux.Handle("GET /metrics", opt.metrics.Handler())
	}
	if opt.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	// Pre-versioning clients used the bare paths; point them at /v1/
	// permanently rather than serving two surfaces.
	mux.HandleFunc("/jobs", redirectV1)
	mux.HandleFunc("/jobs/", redirectV1)
	mux.HandleFunc("/stats", redirectV1)
	return mux
}

// redirectV1 301-aliases a pre-versioning path onto its /v1/ home.
func redirectV1(w http.ResponseWriter, r *http.Request) {
	target := "/v1" + r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		target += "?" + q
	}
	http.Redirect(w, r, target, http.StatusMovedPermanently)
}

// writeJSON writes v as compact JSON followed by a newline, the framing
// every response body has.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeRendered writes a body a service renderer appended to a buffer: a
// job, the job list or a batch. Those carry n-vectors the service encoded
// once, so they are copied to the wire as they are — json.Encoder would
// re-scan every byte of them.
func writeRendered(w http.ResponseWriter, status int, body []byte, err error) {
	if err != nil {
		writeProblem(w, http.StatusInternalServerError, "internal", fmt.Sprintf("encoding response: %v", err), "")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

func writeJob(w http.ResponseWriter, status int, j *service.Job) {
	body, err := j.AppendJSON(nil)
	writeRendered(w, status, body, err)
}

func writeBatch(w http.ResponseWriter, status int, b *service.Batch) {
	body, err := b.AppendJSON(nil)
	writeRendered(w, status, body, err)
}

// problem is the API's single error shape: a stable machine-readable code,
// a short human-readable message, and an optional longer detail (for 422
// table-forbidden specs, the dispatcher's explanation of which table cell
// refused the function).
type problem struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Detail  string `json:"detail,omitempty"`
}

func writeProblem(w http.ResponseWriter, status int, code, message, detail string) {
	writeJSON(w, status, problem{Code: code, Message: message, Detail: detail})
}

// writeSubmitError maps a Submit/SubmitBatch error onto the problem shape.
func writeSubmitError(w http.ResponseWriter, err error) {
	var verr *job.Error
	switch {
	case errors.As(err, &verr):
		writeProblem(w, http.StatusBadRequest, "invalid_spec", err.Error(), "")
	case errors.Is(err, service.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeProblem(w, http.StatusTooManyRequests, "queue_full", "job queue at capacity; retry later", "")
	case errors.Is(err, service.ErrClosed):
		writeProblem(w, http.StatusServiceUnavailable, "service_closed", "service is shutting down", "")
	case errors.Is(err, service.ErrEmptyBatch), errors.Is(err, service.ErrBatchTooLarge):
		writeProblem(w, http.StatusBadRequest, "invalid_batch", err.Error(), "")
	default:
		// A well-formed spec the tables forbid (e.g. sum under plain
		// outdegree awareness): semantically unprocessable. The
		// dispatcher's citing explanation travels in detail.
		writeProblem(w, http.StatusUnprocessableEntity, "table_forbidden",
			"the computability tables forbid this function in this setting", err.Error())
	}
}

// readBody reads a bounded JSON request body, writing the problem response
// itself on failure.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeProblem(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("reading body: %v", err), "")
		return nil, false
	}
	if len(body) > maxSpecBytes {
		writeProblem(w, http.StatusRequestEntityTooLarge, "payload_too_large",
			fmt.Sprintf("body exceeds %d bytes", maxSpecBytes), "")
		return nil, false
	}
	return body, true
}

// retryAfterSeconds estimates when a shed client should come back: one
// second per queued job ahead of it per worker, at least one.
func retryAfterSeconds(rd service.Readiness) int {
	workers := rd.Workers
	if workers < 1 {
		workers = 1
	}
	secs := rd.Queued / workers
	if secs < 1 {
		secs = 1
	}
	return secs
}

// shed rejects intake with 503 + Retry-After while the service cannot
// accept work (queue saturated, shutting down, pool dead). Returns true
// when the request was shed. Submit's own ErrQueueFull check stays as the
// authoritative backstop — shed is the early, cheap answer that spares the
// server decoding and compiling a spec it would refuse anyway.
func (s *server) shed(w http.ResponseWriter) bool {
	rd := s.svc.Readiness()
	if rd.Ready {
		return false
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", s.jitter(retryAfterSeconds(rd))))
	writeProblem(w, http.StatusServiceUnavailable, "not_ready",
		fmt.Sprintf("service cannot accept work: %s", rd.Reason), "")
	return true
}

// throttle enforces the per-tenant quota on an intake request, sharing
// shed's 503 + Retry-After shape so clients handle overload and
// over-quota with one code path. The tenant is the X-Tenant header;
// requests without one share the default bucket. Returns true when the
// request was rejected.
func (s *server) throttle(w http.ResponseWriter, r *http.Request) bool {
	ok, retryAfter := s.quota.Allow(r.Header.Get("X-Tenant"))
	if ok {
		return false
	}
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", s.jitter(secs)))
	writeProblem(w, http.StatusServiceUnavailable, "quota_exceeded",
		"tenant submit quota exhausted; retry later", "")
	return true
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.throttle(w, r) || s.shed(w) {
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	spec, err := job.Decode(body)
	if err != nil {
		writeProblem(w, http.StatusBadRequest, "invalid_spec", err.Error(), "")
		return
	}
	j, err := s.svc.Submit(spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	status := http.StatusAccepted
	if j.State == service.StateDone {
		status = http.StatusOK
	}
	writeJob(w, status, j)
}

// batchRequest is the POST /v1/batch body: either an explicit spec list or
// a template crossed with a sweep grid (axes n and seeds); exactly one of
// the two forms.
type batchRequest struct {
	Specs    []job.Spec `json:"specs,omitempty"`
	Template *job.Spec  `json:"template,omitempty"`
	Grid     *batchGrid `json:"grid,omitempty"`
}

// batchGrid sweeps a template: the batch is the cross product of the axes,
// an omitted axis keeping the template's value. The models axis names
// communication models (any registered name or alias); each grid point
// overrides the template's kind/model pair, so the model is sweepable
// exactly like n and the seed.
type batchGrid struct {
	N      []int    `json:"n,omitempty"`
	Seeds  []int64  `json:"seeds,omitempty"`
	Models []string `json:"models,omitempty"`
}

// expand materializes the request's spec list.
func (br *batchRequest) expand() ([]job.Spec, error) {
	if len(br.Specs) > 0 {
		if br.Template != nil || br.Grid != nil {
			return nil, fmt.Errorf("specs and template/grid are mutually exclusive")
		}
		return br.Specs, nil
	}
	if br.Template == nil {
		return nil, fmt.Errorf("batch needs specs or a template")
	}
	ns := br.Grid.axisN(br.Template.Graph.N)
	seeds := br.Grid.axisSeeds(br.Template.Seed)
	models := br.Grid.axisModels()
	specs := make([]job.Spec, 0, len(ns)*len(seeds)*len(models))
	for _, n := range ns {
		for _, seed := range seeds {
			for _, m := range models {
				sp := *br.Template
				sp.Graph.N = n
				sp.Seed = seed
				if m != "" {
					// The axis entry replaces the template's model; spec
					// canonicalization validates the name and folds model
					// back into kind, so the dedup/fingerprint machinery
					// sees the same canonical form either way.
					sp.Kind = ""
					sp.Model = m
				}
				specs = append(specs, sp)
			}
		}
	}
	return specs, nil
}

func (g *batchGrid) axisN(fallback int) []int {
	if g == nil || len(g.N) == 0 {
		return []int{fallback}
	}
	return g.N
}

func (g *batchGrid) axisSeeds(fallback int64) []int64 {
	if g == nil || len(g.Seeds) == 0 {
		return []int64{fallback}
	}
	return g.Seeds
}

// axisModels returns the model axis, or the one-element "keep the
// template's model" axis when absent.
func (g *batchGrid) axisModels() []string {
	if g == nil || len(g.Models) == 0 {
		return []string{""}
	}
	return g.Models
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.throttle(w, r) || s.shed(w) {
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var br batchRequest
	if err := job.DecodeJSON(body, &br); err != nil {
		writeProblem(w, http.StatusBadRequest, "invalid_batch", err.Error(), "")
		return
	}
	specs, err := br.expand()
	if err != nil {
		writeProblem(w, http.StatusBadRequest, "invalid_batch", err.Error(), "")
		return
	}
	b, err := s.svc.SubmitBatch(specs)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	status := http.StatusAccepted
	if b.Done == len(b.Jobs) {
		status = http.StatusOK
	}
	writeBatch(w, status, b)
}

func (s *server) handleGetBatch(w http.ResponseWriter, r *http.Request) {
	b, err := s.svc.GetBatch(r.PathValue("id"))
	if err != nil {
		writeProblem(w, http.StatusNotFound, "not_found", err.Error(), "")
		return
	}
	writeBatch(w, http.StatusOK, b)
}

// handleList writes {"jobs":[...]}.
func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	body, err := service.AppendJobsJSON([]byte(`{"jobs":`), s.svc.List())
	writeRendered(w, http.StatusOK, append(body, '}'), err)
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.svc.Get(r.PathValue("id"))
	if err != nil {
		writeProblem(w, http.StatusNotFound, "not_found", err.Error(), "")
		return
	}
	writeJob(w, http.StatusOK, j)
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.svc.Cancel(r.PathValue("id"))
	if err != nil {
		writeProblem(w, http.StatusNotFound, "not_found", err.Error(), "")
		return
	}
	writeJob(w, http.StatusOK, j)
}

// handleStream serves NDJSON: one service.Progress object per line,
// round-by-round while the job runs, ending with the terminal event, or
// the interrupted or queued one when a durable shutdown flushes the job or
// leaves it queued (or earlier if the client goes away). The watch channel
// may drop round events a slow reader had no buffer for, but never that
// last one, so the stream's last line reports the outcome.
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, stop, err := s.svc.Watch(id)
	if err != nil {
		writeProblem(w, http.StatusNotFound, "not_found", err.Error(), "")
		return
	}
	defer stop()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Send the headers now: the client learns the subscription is
		// live before the first event, which may be many rounds away.
		flusher.Flush()
	}
	var line []byte
	emit := func(ev service.Progress) bool {
		line = append(ev.AppendJSON(line[:0]), '\n')
		if _, err := w.Write(line); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for {
		select {
		case ev, ok := <-ch:
			if !ok || !emit(ev) || ev.Done {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Stats())
}

// handleReady is the load-balancer probe: 200 with the readiness detail
// while the service accepts work, 503 + Retry-After while it sheds.
func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	rd := s.svc.Readiness()
	if !rd.Ready {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.jitter(retryAfterSeconds(rd))))
		writeJSON(w, http.StatusServiceUnavailable, rd)
		return
	}
	writeJSON(w, http.StatusOK, rd)
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"uptime":  time.Since(s.start).String(),
		"stats":   s.svc.Stats(),
		"version": "anonnetd/1",
	})
}
