// Package telemetry is the repository's zero-dependency observability
// layer: a registry of named counters, gauges, and fixed-bucket latency
// histograms, plus a cycle-stamped event tracer (trace.go) with a bounded
// ring buffer. The cycle-level controller, the protected-memory datapath,
// the DUE response engine, and the Monte-Carlo/experiment worker pools all
// publish through it; the cmd binaries expose the result behind -stats and
// -trace flags (internal/cliflags).
//
// Design rules, enforced by tests:
//
//   - The disabled path is free. Every handle method (Counter.Add,
//     Gauge.Set, Histogram.Observe, Tracer.Emit) is a no-op on a nil
//     receiver, and a nil *Registry hands out nil handles — so code can be
//     instrumented unconditionally and pays only a nil check when telemetry
//     is off. No allocation ever happens on the disabled path.
//   - Instruments are concurrency-safe. Counters, gauges, and histogram
//     buckets are atomics, so experiment/fault-sim worker pools may write
//     concurrently; integer sums make merged results independent of
//     interleaving (block-determinism is preserved).
//   - Snapshots are deterministic. Snapshot output (text or JSON) sorts
//     every key and contains no wall-clock timestamps, so tests can assert
//     snapshots exactly and seeded runs are bit-identical across worker
//     counts.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n; no-op on a nil (disabled) handle.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins measurement (float64 so drained plugin stats
// fit without truncation).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value; no-op on a nil handle.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetMax raises the gauge to v when v exceeds the current value.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the gauge value (0 for a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket latency histogram: observation v lands in
// the first bucket whose upper bound is >= v, or the overflow bucket.
// Bounds are fixed at creation, so merged histograms always agree on
// shape.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Uint64 // len(bounds)+1, last = overflow
	count   atomic.Uint64
	sum     atomic.Int64
}

// DefaultLatencyBounds is the shared bucket layout for cycle-denominated
// latencies: fine resolution around typical DRAM access times, coarse
// tail for queueing storms.
func DefaultLatencyBounds() []int64 {
	return []int64{16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}
}

// Observe records one value; no-op on a nil handle.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v at once, exactly as n Observe(v)
// calls would; no-op on a nil handle. Hot loops tally locally and publish
// through it once per batch.
func (h *Histogram) ObserveN(v int64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	h.count.Add(n)
	h.sum.Add(v * int64(n))
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(n)
			return
		}
	}
	h.buckets[len(h.bounds)].Add(n)
}

// Count returns the number of observations (0 for a nil handle).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Mean returns the mean observed value (0 when empty or nil).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(h.count.Load())
}

// Registry owns named instruments. The zero value is not usable; nil is
// the disabled registry (every lookup returns a nil, no-op handle).
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry builds an enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns (registering on first use) the named counter; nil on a
// nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge; nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram with
// the given bucket bounds; nil on a nil registry. Bounds must be sorted
// ascending; they are fixed by the first registration, and a later lookup
// with different bounds panics — mismatched shapes would merge wrongly.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if ok {
		if !int64sEqual(h.bounds, bounds) {
			panic(fmt.Sprintf("telemetry: histogram %q re-registered with different bounds", name))
		}
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not strictly ascending", name))
		}
	}
	h = &Histogram{bounds: append([]int64(nil), bounds...), buckets: make([]atomic.Uint64, len(bounds)+1)}
	r.histograms[name] = h
	return h
}

// Merge folds another registry's instruments into this one: counters and
// histogram buckets add, gauges take the maximum (the only order-free
// combination for last-value instruments). Worker pools give each worker
// a private registry and merge when done; because every combination is
// commutative and associative over integers, the merged snapshot does not
// depend on worker count or scheduling. No-op when either side is nil.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil || r == o {
		return
	}
	// Freeze the source first, then apply: keeps the lock scopes of the
	// two registries disjoint.
	r.MergeSnapshot(o.Snapshot())
}

// MergeSnapshot folds a frozen snapshot into the registry under the same
// commutative rules as Merge. The fleet coordinator uses it to fold
// worker-shipped completion snapshots into its fleet-wide registry.
// Snapshots cross the wire there, so malformed shapes are skipped rather
// than panicking: a histogram whose bucket slice disagrees with its
// bounds, or whose bounds conflict with an already-registered histogram,
// is dropped — one bad worker must not poison the aggregate.
func (r *Registry) MergeSnapshot(src Snapshot) {
	if r == nil {
		return
	}
	for _, name := range sortedKeys(src.Counters) {
		r.Counter(name).Add(src.Counters[name])
	}
	for _, name := range sortedKeys(src.Gauges) {
		r.Gauge(name).SetMax(src.Gauges[name])
	}
	for _, name := range sortedKeys(src.Histograms) {
		hs := src.Histograms[name]
		if len(hs.Buckets) != len(hs.Bounds)+1 {
			continue
		}
		dst := r.histogramIfCompatible(name, hs.Bounds)
		if dst == nil {
			continue
		}
		for i, n := range hs.Buckets {
			dst.buckets[i].Add(n)
		}
		dst.count.Add(hs.Count)
		dst.sum.Add(hs.Sum)
	}
}

// histogramIfCompatible is Histogram for untrusted (wire-crossing)
// shapes: it returns nil instead of panicking when bounds are unsorted
// or conflict with an existing registration.
func (r *Registry) histogramIfCompatible(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		if !int64sEqual(h.bounds, bounds) {
			return nil
		}
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil
		}
	}
	h := &Histogram{bounds: append([]int64(nil), bounds...), buckets: make([]atomic.Uint64, len(bounds)+1)}
	r.histograms[name] = h
	return h
}

// HistogramSnapshot is one histogram's frozen state.
type HistogramSnapshot struct {
	Bounds  []int64  `json:"bounds"`
	Buckets []uint64 `json:"buckets"`
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
}

// Mean returns the snapshot's mean observation (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the bucket holding the target rank, assuming observations are
// uniform inside a bucket — the standard fixed-bucket estimator, the
// same one Prometheus' histogram_quantile applies to the exposition this
// snapshot renders to. The first bucket interpolates from zero; a rank
// landing in the overflow bucket has no upper bound and clamps to the
// last finite bound. Returns 0 for an empty histogram.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum uint64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.Bounds) {
				return float64(h.Bounds[len(h.Bounds)-1])
			}
			lower := 0.0
			if i > 0 {
				lower = float64(h.Bounds[i-1])
			}
			upper := float64(h.Bounds[i])
			frac := (rank - float64(cum)) / float64(n)
			return lower + (upper-lower)*frac
		}
		cum += n
	}
	return float64(h.Bounds[len(h.Bounds)-1])
}

// Snapshot is a registry's frozen, deterministic state: plain maps whose
// JSON encoding sorts keys, with no timestamps.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry. A nil registry yields the empty (but
// non-nil-map) snapshot, so disabled runs still print valid output.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{
			Bounds: append([]int64(nil), h.bounds...),
			Count:  h.count.Load(),
			Sum:    h.sum.Load(),
		}
		for i := range h.buckets {
			hs.Buckets = append(hs.Buckets, h.buckets[i].Load())
		}
		s.Histograms[name] = hs
	}
	return s
}

// Equal reports whether two snapshots are bit-identical.
func (s Snapshot) Equal(o Snapshot) bool {
	a, errA := json.Marshal(s)
	b, errB := json.Marshal(o)
	return errA == nil && errB == nil && string(a) == string(b)
}

// WriteJSON renders the snapshot as indented JSON with sorted keys
// (encoding/json sorts map keys by construction).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the snapshot as sorted "name value" lines.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "counter   %-44s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "gauge     %-44s %g\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "histogram %-44s count=%d sum=%d mean=%.2f buckets=%v\n",
			name, h.Count, h.Sum, h.Mean(), h.Buckets); err != nil {
			return err
		}
		if h.Count == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "quantile  %-44s p50=%.2f p90=%.2f p99=%.2f\n",
			name, h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
