// Package obs is the study pipeline's observability layer: a
// stdlib-only metrics registry (counters, gauges, fixed-bucket
// histograms), per-run stage spans, and a snapshot type that
// serializes to stable, timestamp-free JSON (the same philosophy as
// cmd/benchjson — regenerating on identical inputs yields identical
// bytes).
//
// Metrics are pure observation. Collectors never feed back into the
// simulation or the analysis: a study run with a live Registry produces
// byte-identical records, goldens and experiment output to one with a
// nil collector, which campaign's parity test enforces. The packages
// being observed never read the wall clock themselves — spans take
// their time from the Registry's injected clock, so the determinism
// analyzer's scope stays untouched.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Collector is the observation sink the pipeline packages accept. The
// nil interface is the disabled default: call sites guard with
// `c != nil`, so the hot path costs one comparison and zero
// allocations when observability is off. *Registry is the live
// implementation.
type Collector interface {
	// Add increments the named counter by delta.
	Add(name string, delta int64)
	// Set sets the named gauge.
	Set(name string, v int64)
	// Observe records one sample into the named histogram.
	Observe(name string, v float64)
	// StartStage opens a span for one pipeline stage; the returned
	// func closes it, recording the elapsed time as a duration
	// histogram sample ("stage.<name>.seconds").
	StartStage(s Stage) func()
}

// Fixed histogram bucket sets. Buckets are upper bounds; every
// histogram carries one extra overflow bucket (+Inf). Fixed buckets
// keep snapshots comparable across runs and machines.
var (
	// DurationBuckets covers stage spans, in seconds.
	DurationBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60}
	// SizeBuckets covers byte and event counts.
	SizeBuckets = []float64{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}
	// DefaultBuckets covers small tallies.
	DefaultBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000}
)

// bucketsFor picks the fixed bucket set from the metric-name suffix:
// ".seconds" measures time, ".bytes" and ".count" measure volume.
func bucketsFor(name string) []float64 {
	switch {
	case strings.HasSuffix(name, ".seconds"):
		return DurationBuckets
	case strings.HasSuffix(name, ".bytes"), strings.HasSuffix(name, ".count"):
		return SizeBuckets
	default:
		return DefaultBuckets
	}
}

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins value.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts samples into fixed buckets.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // immutable after construction; upper bounds, ascending
	counts  []int64   // guarded by: mu — len(bounds)+1; the last is the +Inf overflow
	sum     float64   // guarded by: mu
	samples int64     // guarded by: mu
}

// Observe records one sample.
//
// locks: mu
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Registry is the live Collector: a named set of counters, gauges and
// histograms, safe for concurrent use by the campaign worker pool.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter   // guarded by: mu
	gauges   map[string]*Gauge     // guarded by: mu
	hists    map[string]*Histogram // guarded by: mu

	// now is the span clock, injectable so tests observe deterministic
	// durations and so observed packages never call time.Now themselves.
	now func() time.Time // guarded by: mu
}

// NewRegistry returns an empty registry whose span clock is time.Now.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		now:      time.Now,
	}
}

// SetClock replaces the span clock (tests inject a fake for
// deterministic span histograms).
//
// locks: mu
func (r *Registry) SetClock(now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.now = now
}

// Counter returns (creating if needed) the named counter. Hot paths
// can hold the *Counter and skip the map lookup.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram, its
// buckets chosen by bucketsFor from the name suffix.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		bounds := bucketsFor(name)
		h = &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// Add implements Collector.
func (r *Registry) Add(name string, delta int64) { r.Counter(name).Add(delta) }

// Set implements Collector.
func (r *Registry) Set(name string, v int64) { r.Gauge(name).Set(v) }

// Observe implements Collector.
func (r *Registry) Observe(name string, v float64) { r.Histogram(name).Observe(v) }

// StartStage implements Collector: the returned func records the
// elapsed span into "stage.<name>.seconds" and bumps
// "stage.<name>.spans".
//
//loopvet:detsafe span clock is observation-only: stage durations feed metrics, never domain output, and the metrics-parity test proves runs emit byte-identical captures with metrics on or off
func (r *Registry) StartStage(s Stage) func() {
	r.mu.RLock()
	now := r.now
	r.mu.RUnlock()
	t0 := now()
	name := s.String()
	return func() {
		r.Observe("stage."+name+".seconds", now().Sub(t0).Seconds())
		r.Add("stage."+name+".spans", 1)
	}
}

// Snapshot is the stable, timestamp-free serialization of a registry:
// every section is sorted by name, so identical observations yield
// identical bytes.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// CounterValue is one counter's snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge's snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one histogram's snapshot; bucket counts are
// cumulative and the last bucket's bound is "+Inf".
type HistogramValue struct {
	Name    string   `json:"name"`
	Samples int64    `json:"samples"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Bucket is one cumulative histogram bucket. Le is the upper bound
// rendered as text ("+Inf" for the overflow bucket) so the JSON stays
// valid without float-infinity special cases.
type Bucket struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// Snapshot captures the registry's current state.
//
// locks: mu
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := &Snapshot{}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		h.mu.Lock()
		hv := HistogramValue{Name: name, Samples: h.samples, Sum: h.sum}
		var cum int64
		for i, b := range h.bounds {
			cum += h.counts[i]
			hv.Buckets = append(hv.Buckets, Bucket{Le: strconv.FormatFloat(b, 'g', -1, 64), Count: cum})
		}
		cum += h.counts[len(h.bounds)]
		hv.Buckets = append(hv.Buckets, Bucket{Le: "+Inf", Count: cum})
		h.mu.Unlock()
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteJSON writes the registry snapshot as indented JSON. The output
// carries no timestamps; identical observations produce identical
// bytes.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
