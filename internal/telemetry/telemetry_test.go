package telemetry

import (
	"reflect"
	"strings"
	"testing"
)

func TestNilRegistryIsFreeAndSafe(t *testing.T) {
	t.Parallel()
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", DefaultLatencyBounds())
	c.Add(3)
	c.Inc()
	g.Set(1.5)
	g.SetMax(2.5)
	h.Observe(100)
	h.ObserveN(100, 3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	var sb strings.Builder
	if err := s.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"counters": {}`) {
		t.Fatalf("empty snapshot JSON malformed: %s", sb.String())
	}
}

func TestDisabledPathAllocationFree(t *testing.T) {
	t.Parallel()
	var r *Registry
	var tr *Tracer
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []int64{1, 2})
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.SetMax(9)
		h.Observe(5)
		h.ObserveN(5, 3)
		tr.Emit(Event{Kind: EvRD})
	}); n != 0 {
		t.Fatalf("disabled telemetry allocated %.1f times per op, want 0", n)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("reads")
	c.Add(2)
	c.Inc()
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if r.Counter("reads") != c {
		t.Fatal("counter lookup must return the same handle")
	}

	g := r.Gauge("depth")
	g.Set(4)
	g.SetMax(2) // lower: ignored
	g.SetMax(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %g, want 7", got)
	}

	h := r.Histogram("lat", []int64{10, 100})
	for _, v := range []int64{5, 10, 11, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot()
	hs := s.Histograms["lat"]
	if hs.Count != 4 || hs.Sum != 1026 {
		t.Fatalf("histogram count/sum = %d/%d, want 4/1026", hs.Count, hs.Sum)
	}
	want := []uint64{2, 1, 1} // <=10: {5,10}; <=100: {11}; overflow: {1000}
	for i, b := range hs.Buckets {
		if b != want[i] {
			t.Fatalf("buckets = %v, want %v", hs.Buckets, want)
		}
	}
	if hs.Mean() != 1026.0/4 {
		t.Fatalf("mean = %g", hs.Mean())
	}
}

func TestHistogramObserveNMatchesObserve(t *testing.T) {
	t.Parallel()
	one, bulk := NewRegistry(), NewRegistry()
	bounds := []int64{0, 1, 2, 4, 8}
	for _, obs := range []struct {
		v int64
		n uint64
	}{{0, 4093}, {1, 2}, {3, 1}, {9, 7}, {4, 0}} {
		for i := uint64(0); i < obs.n; i++ {
			one.Histogram("h", bounds).Observe(obs.v)
		}
		bulk.Histogram("h", bounds).ObserveN(obs.v, obs.n)
	}
	a, b := one.Snapshot().Histograms["h"], bulk.Snapshot().Histograms["h"]
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("ObserveN snapshot %+v, n Observe calls %+v", b, a)
	}
}

func TestHistogramBoundsValidation(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Histogram("h", []int64{1, 2, 3})
	for name, f := range map[string]func(){
		"re-register different bounds": func() { r.Histogram("h", []int64{1, 2}) },
		"unsorted bounds":              func() { r.Histogram("h2", []int64{2, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
	// Same bounds re-lookup is fine and returns the same handle.
	if r.Histogram("h", []int64{1, 2, 3}) == nil {
		t.Fatal("same-bounds lookup failed")
	}
}

func TestSnapshotDeterministicAndSorted(t *testing.T) {
	t.Parallel()
	mk := func() *Registry {
		r := NewRegistry()
		r.Counter("b.count").Add(2)
		r.Counter("a.count").Add(1)
		r.Gauge("z.gauge").Set(3.5)
		r.Histogram("m.lat", []int64{8, 64}).Observe(9)
		return r
	}
	var out1, out2 strings.Builder
	if err := mk().Snapshot().WriteJSON(&out1); err != nil {
		t.Fatal(err)
	}
	if err := mk().Snapshot().WriteJSON(&out2); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Fatalf("snapshots differ:\n%s\n%s", out1.String(), out2.String())
	}
	if strings.Index(out1.String(), "a.count") > strings.Index(out1.String(), "b.count") {
		t.Fatalf("JSON keys not sorted:\n%s", out1.String())
	}
	var txt strings.Builder
	if err := mk().Snapshot().WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"counter   a.count", "counter   b.count", "gauge     z.gauge", "histogram m.lat"} {
		if !strings.Contains(txt.String(), want) {
			t.Fatalf("text snapshot missing %q:\n%s", want, txt.String())
		}
	}
	if !mk().Snapshot().Equal(mk().Snapshot()) {
		t.Fatal("Equal() must hold for identical registries")
	}
}

func TestMerge(t *testing.T) {
	t.Parallel()
	a, b := NewRegistry(), NewRegistry()
	a.Counter("n").Add(3)
	b.Counter("n").Add(4)
	b.Counter("only-b").Add(1)
	a.Gauge("g").Set(5)
	b.Gauge("g").Set(2)
	a.Histogram("h", []int64{10}).Observe(4)
	b.Histogram("h", []int64{10}).Observe(40)

	a.Merge(b)
	s := a.Snapshot()
	if s.Counters["n"] != 7 || s.Counters["only-b"] != 1 {
		t.Fatalf("merged counters wrong: %+v", s.Counters)
	}
	if s.Gauges["g"] != 5 {
		t.Fatalf("merged gauge = %g, want max 5", s.Gauges["g"])
	}
	h := s.Histograms["h"]
	if h.Count != 2 || h.Sum != 44 || h.Buckets[0] != 1 || h.Buckets[1] != 1 {
		t.Fatalf("merged histogram wrong: %+v", h)
	}

	// Nil and self merges are no-ops.
	a.Merge(nil)
	a.Merge(a)
	var nilReg *Registry
	nilReg.Merge(b)
	if got := a.Snapshot().Counters["n"]; got != 7 {
		t.Fatalf("self/nil merge changed state: %d", got)
	}
}

func TestMergeOrderIndependent(t *testing.T) {
	t.Parallel()
	mk := func(seed uint64) *Registry {
		r := NewRegistry()
		r.Counter("c").Add(seed)
		r.Histogram("h", []int64{5, 50}).Observe(int64(seed))
		r.Gauge("g").SetMax(float64(seed))
		return r
	}
	parts := []*Registry{mk(1), mk(10), mk(100)}
	fwd, rev := NewRegistry(), NewRegistry()
	for _, p := range parts {
		fwd.Merge(p)
	}
	for i := len(parts) - 1; i >= 0; i-- {
		rev.Merge(parts[i])
	}
	if !fwd.Snapshot().Equal(rev.Snapshot()) {
		t.Fatal("merge must be order-independent")
	}
}
