// Package metrics renders process metrics in the Prometheus text
// exposition format (version 0.0.4) with no external dependencies: a
// registry of callback-backed counters and gauges plus fixed-bucket
// histograms with atomic hot paths. anonnetd mounts the registry at
// /metrics; the callbacks read service.Stats, the snapshot the service
// also renders as its expvar map, so the two endpoints can never
// disagree.
package metrics

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Histogram counts observations into fixed cumulative buckets, in the
// Prometheus style: bucket i counts observations ≤ bounds[i], with an
// implicit +Inf bucket, plus a running sum and count. Observe is
// lock-free and safe for concurrent use.
type Histogram struct {
	name   string
	help   string
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // math.Float64bits accumulator
	count  atomic.Int64
}

// DefBuckets is the default latency bucket ladder in seconds — the
// classic Prometheus defaults, wide enough for microsecond engine rounds
// and multi-second batch jobs alike.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// NewHistogram builds a histogram with the given strictly-increasing
// upper bounds (DefBuckets when nil).
func NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s bounds not increasing at %d", name, i))
		}
	}
	return &Histogram{
		name:   name,
		help:   help,
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// write renders the histogram in exposition format.
func (h *Histogram) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", h.name, formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", h.name, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count %d\n", h.name, h.count.Load())
}

// metric is one scalar series: a counter or gauge whose value is read at
// scrape time from a callback.
type metric struct {
	name string
	help string
	typ  string // "counter" | "gauge"
	read func() float64
}

// Registry holds the metric set one endpoint serves. The zero value is
// unusable; use NewRegistry.
type Registry struct {
	mu      sync.Mutex
	scalars []metric
	hists   []*Histogram
	names   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// Counter registers a monotonically-non-decreasing series read from fn
// at scrape time. Panics on duplicate names — registration is wiring, not
// runtime input.
func (r *Registry) Counter(name, help string, fn func() float64) {
	r.add(metric{name: name, help: help, typ: "counter", read: fn})
}

// Gauge registers a series that can go up and down, read from fn at
// scrape time.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.add(metric{name: name, help: help, typ: "gauge", read: fn})
}

// Histogram registers a histogram.
func (r *Registry) Histogram(h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reserve(h.name)
	r.hists = append(r.hists, h)
}

func (r *Registry) add(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reserve(m.name)
	r.scalars = append(r.scalars, m)
}

func (r *Registry) reserve(name string) {
	if r.names[name] {
		panic(fmt.Sprintf("metrics: duplicate metric %s", name))
	}
	r.names[name] = true
}

// Render produces the full exposition-format payload, series sorted by
// name for stable scrapes.
func (r *Registry) Render() string {
	r.mu.Lock()
	scalars := append([]metric(nil), r.scalars...)
	hists := append([]*Histogram(nil), r.hists...)
	r.mu.Unlock()
	sort.Slice(scalars, func(i, j int) bool { return scalars[i].name < scalars[j].name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	var b strings.Builder
	for _, m := range scalars {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
			m.name, m.help, m.name, m.typ, m.name, formatFloat(m.read()))
	}
	for _, h := range hists {
		h.write(&b)
	}
	return b.String()
}

// Handler serves the registry in the Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, r.Render())
	})
}

// formatFloat renders values the way Prometheus clients do: shortest
// round-trip representation, integers without a decimal point.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
