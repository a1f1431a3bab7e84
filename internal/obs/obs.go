// Package obs is the observability layer of the reproduction: lock-free
// counters, gauges and fixed-bucket latency histograms behind a named
// registry, with cheap deterministic snapshots rendered as Prometheus
// text or JSON and served live over HTTP alongside net/http/pprof.
//
// The paper's evaluation (Tables 1–2) is entirely about per-event
// analysis cost, graph size and GC effectiveness; this package makes
// those quantities first-class properties of the engines instead of a
// one-shot CLI flag. All instrument types are safe for concurrent use —
// updates are single atomic operations — so a heartbeat goroutine or an
// HTTP scrape can observe a run while the engine is mid-trace. Standard
// library only.
//
// Metric names follow the Prometheus convention, with an optional
// label set baked into the name string itself:
//
//	reg.Counter("velodrome_warnings_total").Inc()
//	reg.Counter(`velodrome_stage_ns_total{stage="graph"}`).Add(ns)
//
// The registry treats the whole string as the series key; the renderers
// split base name and labels only at exposition time.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing value (events processed,
// warnings reported, nodes allocated). Updates are lock-free.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d, which must be non-negative for the Prometheus contract;
// this is not enforced on the hot path.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Gauge is a value that can go up and down (live nodes, live edges,
// running threads). Updates are lock-free.
type Gauge struct{ v atomic.Int64 }

// Set stores x.
func (g *Gauge) Set(x int64) { g.v.Store(x) }

// Add adds d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a named collection of instruments. Lookups take a mutex
// (callers cache the returned pointer at setup time); updates through
// the returned instruments are lock-free.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Safe for concurrent use; nil registries are not allowed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// sortedKeys returns the keys of m in sorted order, so snapshots and
// renderings are deterministic.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
