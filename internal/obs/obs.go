// Package obs is MOCHA's observability layer: a dependency-free metrics
// registry (counters, gauges, histograms with atomic hot paths) and
// lightweight per-query trace spans. The paper's whole evaluation
// (section 5.2) is built on measuring where a distributed query spends
// its time and bytes; this package turns those per-query measurements
// into process-level aggregates (SHOW METRICS, /metrics) and per-query
// cross-site timelines (EXPLAIN ANALYZE).
//
// The package deliberately depends on nothing but the standard library's
// sync/atomic, so every other layer (wire, netsim, dap, qpc, bench) can
// import it without cycles.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. All methods are safe for
// concurrent use and lock-free.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; negative deltas are ignored to keep the
// counter monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down (e.g. open sessions).
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of exponential histogram buckets: bucket i
// counts observations v with 2^(i-1) < v <= 2^i (bucket 0 holds v <= 1),
// covering 1 .. 2^62 in whatever unit the caller observes (this codebase
// uses microseconds for latencies and bytes for sizes).
const histBuckets = 63

// Histogram aggregates observations into power-of-two buckets. Observe
// is a single atomic add on the hot path; quantiles are estimated from
// the bucket midpoints at read time.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value. Negative values count as zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// bucketOf returns the index of the bucket holding v.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := 64 - bits.LeadingZeros64(uint64(v-1))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile estimates the q-th quantile (0 < q <= 1) from the bucket
// counts, interpolating within the winning bucket's range.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i := 0; i < histBuckets; i++ {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - seen) / n
			return lo + frac*(hi-lo)
		}
		seen += n
	}
	_, hi := bucketBounds(histBuckets - 1)
	return hi
}

// bucketBounds returns the (lo, hi] range of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return math.Pow(2, float64(i-1)), math.Pow(2, float64(i))
}

// Registry is a named collection of metrics. Lookup-or-create is
// mutex-guarded; the returned metric handles are lock-free, so callers
// should cache handles for hot paths.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// defaultRegistry serves processes that do not wire their own (the
// stand-alone servers expose it at -pprof-addr /metrics).
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use. A nil
// registry returns a detached counter, so instrumentation can be
// unconditional.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return &Histogram{}
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// Snapshot returns every scalar metric as name → value. Histograms
// contribute derived series (name.count, name.sum, name.p50, name.p99).
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	out := make(map[string]int64)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name+".count"] = h.Count()
		out[name+".sum"] = h.Sum()
		out[name+".p50"] = int64(h.Quantile(0.50))
		out[name+".p99"] = int64(h.Quantile(0.99))
	}
	return out
}

// Render formats the registry as sorted "name value" lines — the payload
// of SHOW METRICS and the /metrics debug endpoint.
func (r *Registry) Render() string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %d\n", name, snap[name])
	}
	return b.String()
}
