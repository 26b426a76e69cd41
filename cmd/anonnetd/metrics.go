package main

import (
	"anonnet/internal/metrics"
	"anonnet/internal/quota"
	"anonnet/internal/service"
	"anonnet/internal/store"
)

// newMetricsRegistry wires the /metrics endpoint: the service counters
// (read from service.Stats, which also renders the expvar "anonnetd"
// map, so the two endpoints can never disagree), the durable-store
// gauges, the quota tenant gauge, and the job-latency histogram. st,
// lim, and hist may be nil — their series are simply absent.
func newMetricsRegistry(svc *service.Service, st *store.Store, lim *quota.Limiter, hist *metrics.Histogram) *metrics.Registry {
	reg := metrics.NewRegistry()
	counter := func(name, help string, read func(service.Stats) int64) {
		reg.Counter(name, help, func() float64 { return float64(read(svc.Stats())) })
	}
	gauge := func(name, help string, read func(service.Stats) float64) {
		reg.Gauge(name, help, func() float64 { return read(svc.Stats()) })
	}
	counter("anonnetd_jobs_submitted_total", "Jobs accepted by the service.",
		func(s service.Stats) int64 { return s.Submitted })
	counter("anonnetd_jobs_completed_total", "Jobs that finished done.",
		func(s service.Stats) int64 { return s.Completed })
	counter("anonnetd_jobs_failed_total", "Jobs that finished failed.",
		func(s service.Stats) int64 { return s.Failed })
	counter("anonnetd_jobs_canceled_total", "Jobs canceled by clients or deadlines.",
		func(s service.Stats) int64 { return s.Canceled })
	counter("anonnetd_cache_hits_total", "Submissions served from the result cache or disk tier.",
		func(s service.Stats) int64 { return s.CacheHits })
	counter("anonnetd_rounds_simulated_total", "Engine rounds executed across all jobs.",
		func(s service.Stats) int64 { return s.RoundsSimulated })
	counter("anonnetd_retries_total", "Transient-error re-executions.",
		func(s service.Stats) int64 { return s.Retries })
	counter("anonnetd_panics_recovered_total", "Runner panics converted to failed jobs.",
		func(s service.Stats) int64 { return s.PanicsRecovered })
	counter("anonnetd_jobs_recovered_total", "Jobs re-enqueued from the durable store at boot.",
		func(s service.Stats) int64 { return s.Recovered })
	counter("anonnetd_jobs_interrupted_total", "Running jobs flushed to checkpoints at shutdown.",
		func(s service.Stats) int64 { return s.Interrupted })
	counter("anonnetd_store_errors_total", "Durable-store append failures.",
		func(s service.Stats) int64 { return s.StoreErrors })
	counter("anonnetd_sync_failures_total", "Appends that landed but whose fsync failed (durability in doubt).",
		func(s service.Stats) int64 { return s.SyncFailures })
	counter("anonnetd_breaker_trips_total", "Times the store circuit breaker opened into degraded mode.",
		func(s service.Stats) int64 { return s.BreakerTrips })
	counter("anonnetd_degraded_dropped_total", "Persists skipped while the breaker was open.",
		func(s service.Stats) int64 { return s.DegradedDropped })
	counter("anonnetd_backfilled_total", "Jobs re-appended to the log after the breaker closed.",
		func(s service.Stats) int64 { return s.Backfilled })
	counter("anonnetd_topo_cache_hits_total", "Compiles served an already-resident topology snapshot.",
		func(s service.Stats) int64 { return s.TopoCacheHits })
	counter("anonnetd_topo_cache_misses_total", "Topology snapshots built because no shared one was resident.",
		func(s service.Stats) int64 { return s.TopoCacheMisses })
	counter("anonnetd_topo_cache_coalesced_total", "Compiles that waited on another compile's in-flight snapshot build.",
		func(s service.Stats) int64 { return s.TopoCacheCoalesced })
	counter("anonnetd_topo_cache_evictions_total", "Idle snapshots evicted to stay under the byte budget.",
		func(s service.Stats) int64 { return s.TopoCacheEvictions })
	counter("anonnetd_dedup_coalesced_total", "Submissions attached to an identical in-flight job instead of enqueueing.",
		func(s service.Stats) int64 { return s.DedupCoalesced })
	counter("anonnetd_affinity_hits_total", "Jobs dispatched to a worker whose previous job shared the graph fingerprint.",
		func(s service.Stats) int64 { return s.AffinityHits })
	counter("anonnetd_affinity_misses_total", "Jobs dispatched to a worker with a different (or no) previous fingerprint.",
		func(s service.Stats) int64 { return s.AffinityMisses })
	gauge("anonnetd_topo_cache_bytes", "Resident bytes in the shared topology-snapshot cache.",
		func(s service.Stats) float64 { return float64(s.TopoCacheBytes) })
	gauge("anonnetd_topo_cache_entries", "Snapshots resident in the shared topology cache.",
		func(s service.Stats) float64 { return float64(s.TopoCacheEntries) })
	gauge("anonnetd_jobs_running", "Jobs executing right now.",
		func(s service.Stats) float64 { return float64(s.Running) })
	gauge("anonnetd_jobs_queued", "Jobs waiting in the bounded queue.",
		func(s service.Stats) float64 { return float64(s.Queued) })
	gauge("anonnetd_workers", "Configured worker-pool size.",
		func(s service.Stats) float64 { return float64(s.Workers) })
	gauge("anonnetd_cache_entries", "Result-cache entries resident in memory.",
		func(s service.Stats) float64 { return float64(s.CacheEntries) })
	gauge("anonnetd_degraded", "1 while the store breaker is open (in-memory degraded mode), else 0.",
		func(s service.Stats) float64 {
			if s.Degraded {
				return 1
			}
			return 0
		})

	if st != nil {
		sgauge := func(name, help string, read func(store.Stats) float64) {
			reg.Gauge(name, help, func() float64 { return read(st.Stats()) })
		}
		sgauge("anonnetd_store_segments", "Log segments on disk.",
			func(s store.Stats) float64 { return float64(s.Segments) })
		sgauge("anonnetd_store_records", "Log records (replayed + appended).",
			func(s store.Stats) float64 { return float64(s.Records) })
		sgauge("anonnetd_store_log_bytes", "Total log bytes on disk.",
			func(s store.Stats) float64 { return float64(s.LogBytes) })
		sgauge("anonnetd_store_jobs", "Distinct jobs in the log.",
			func(s store.Stats) float64 { return float64(s.Jobs) })
		sgauge("anonnetd_store_pending_jobs", "Persisted jobs not yet terminal.",
			func(s store.Stats) float64 { return float64(s.Pending) })
		sgauge("anonnetd_store_checkpoints", "Engine checkpoint blobs on disk.",
			func(s store.Stats) float64 { return float64(s.Checkpoints) })
		sgauge("anonnetd_store_quarantined_segments", "Damaged segments sealed aside at replay.",
			func(s store.Stats) float64 { return float64(s.QuarantinedSegments) })
		scounter := func(name, help string, read func(store.Stats) int64) {
			reg.Counter(name, help, func() float64 { return float64(read(st.Stats())) })
		}
		scounter("anonnetd_store_append_errors_total", "Append write errors seen by the store itself.",
			func(s store.Stats) int64 { return s.AppendErrors })
		scounter("anonnetd_store_sync_failures_total", "Fsync failures seen by the store itself.",
			func(s store.Stats) int64 { return s.SyncFailures })
	}
	if lim != nil {
		reg.Gauge("anonnetd_quota_tenants", "Tenants with live token buckets.",
			func() float64 { return float64(lim.Tenants()) })
	}
	if hist != nil {
		reg.Histogram(hist)
	}
	return reg
}
