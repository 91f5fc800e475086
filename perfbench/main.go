// Command perfbench is the SafeGuard reproduction's benchmark: four
// workloads driven through the program's public package APIs, host-time
// end-to-end metrics from an untraced run, and per-layer metrics from a
// separate traced run (spans around every call the benchmark makes plus a
// CPU profile split by package). See README.md in this directory.
//
// Usage, from the repository root (perfbench/run.py builds and runs it):
//
//	perfbench -root . -workload perf-sweep -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is the result JSON.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// benchVersion versions the benchmark's inputs, metrics and checks; bump
// it whenever a change makes old and new numbers incomparable.
const benchVersion = "perfbench/1"

// A run times the workload's set-up repeatedly, once before and once
// after the measured phase: at least setupMinReps times each, repeating
// until setupMinTotal has passed (at most setupMaxReps times). Each
// repetition starts from a collected heap, so it does not pay for the
// garbage of the one before. setup_s is the median of all of them, so a
// millisecond-scale set-up is timed over many repetitions and over two
// moments of the host's load.
const (
	setupMinReps  = 3
	setupMaxReps  = 200
	setupMinTotal = 500 * time.Millisecond
)

// maxWorkers caps the goroutines doing work, so a larger runner measures
// the same thing as the 2-core reference machine.
const maxWorkers = 2

// env is what every workload receives.
type env struct {
	ctx     context.Context
	root    string // repository checkout
	seed    uint64
	workers int
}

// unitResult is one checked unit of work.
type unitResult struct {
	index  int
	ms     float64 // latency
	work   float64 // contribution to units_per_s
	digest string  // golden digest of the unit's output ("" = none)
	err    error   // a failed check or an error: the unit counts as failed
}

// runner is one set-up workload instance.
type runner interface {
	// clients is the number of closed-loop clients issuing units.
	clients() int
	// batch is the issue granularity: after the deadline the loop still
	// issues units up to the next multiple of batch, so every run holds
	// whole batches of the workload's input mix.
	batch() int
	// unit runs unit i (inputs are a function of the seed and i), timing
	// itself. Spans it records hang under parent.
	unit(i int, tr *tracer, parent int) unitResult
	// cached returns the cached units the measured phase interleaved with
	// its units (each timed on its own), after checking them.
	cached() []unitResult
	// extras runs the traced run's additional checked calls.
	extras(tr *tracer) []unitResult
	// layers fills per-layer metrics from the traced pass.
	layers(spans []span, units []unitResult, m map[string]float64)
	close()
}

// benchmarked are the workloads BENCHMARK.json lists.
var benchmarked = []string{"perf-sweep", "lifetime-served"}

// companions maps a benchmarked workload to the workload whose traced
// pass rides in its traced run. A companion's host time swings too much
// on a shared host to bound (README.md), so it reports no end-to-end
// metrics to the benchmark; its layers are measured all the same.
var companions = map[string]string{"perf-sweep": "attack-synth", "lifetime-served": "integrity-rw"}

// companionUnits is how many units a companion's traced pass runs.
var companionUnits = map[string]int{"attack-synth": 16, "integrity-rw": 40}

var workloads = map[string]func(e *env) (runner, error){
	"perf-sweep":      newPerfSweep,
	"lifetime-served": newLifetimeServed,
	"attack-synth":    newAttackSynth,
	"integrity-rw":    newIntegrityRW,
}

func main() { os.Exit(run()) }

func run() int {
	root := flag.String("root", ".", "repository checkout")
	name := flag.String("workload", "", "workload: perf-sweep, lifetime-served, attack-synth, integrity-rw")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	update := flag.Bool("update-golden", false, "record this run's outputs as the workload's golden (untraced run)")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (perf-sweep|lifetime-served|attack-synth|integrity-rw), -seconds >= 1, -trace 0|1")
		return 2
	}
	workers := min(runtime.NumCPU(), maxWorkers)
	runtime.GOMAXPROCS(workers)
	e := &env{ctx: context.Background(), root: *root, seed: *seed, workers: workers}
	if _, err := os.Stat(filepath.Join(e.root, "internal")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s is not the repository root: %v\n", e.root, err)
		return 2
	}
	g, err := loadGolden(e.root, *name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	st := makeStamp(e, *name, *seconds, *trace == 1)
	stampJSON, _ := json.Marshal(st)
	fmt.Println("stamp:", string(stampJSON))

	var res *result
	if *trace == 1 {
		res, err = tracedRun(e, mk, *name, time.Duration(*seconds)*time.Second, g)
	} else {
		res, err = untracedRun(e, mk, time.Duration(*seconds)*time.Second, g, *update)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *update {
		if err := g.save(e.root, *name, e.seed, res.units); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for i, f := range res.failures {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "... %d more failures\n", len(res.failures)-20)
			break
		}
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	out := map[string]any{
		"correct":   len(res.failures) == 0,
		"attempted": res.attempted,
		"failed":    len(res.failures),
		"metrics":   res.metrics,
	}
	if err := writeRecord(e.root, *name, e.seed, *trace, st, out, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	metrics   map[string]metricValue
	attempted int
	failures  []string
	units     []unitResult // measured units, by index
	notes     []string     // human-readable lines printed before the result
	spans     []span
}

// account counts units as attempted and records every failed one.
func (r *result) account(units []unitResult) {
	for _, u := range units {
		r.attempted++
		if u.err != nil {
			r.failures = append(r.failures, fmt.Sprintf("unit %d: %v", u.index, u.err))
		}
	}
}

func (r *result) set(defs []metricDef, m map[string]float64) error {
	r.metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := m[d.name] // a layer the workload never calls reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return nil
}

// setup builds the workload repeatedly and returns the last instance;
// times receives each build's duration in seconds.
func setup(e *env, mk func(*env) (runner, error), times *[]float64) (runner, error) {
	var r runner
	start, reps := time.Now(), 0
	for reps < setupMinReps || (reps < setupMaxReps && time.Since(start) < setupMinTotal) {
		if r != nil {
			r.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = mk(e); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		*times = append(*times, time.Since(t0).Seconds())
		reps++
	}
	return r, nil
}

// closedLoop runs units 0, 1, 2, ... on r.clients() goroutines, each
// starting its next unit only after its previous one finished. It stops
// issuing at the first batch boundary after the deadline (limit == 0) or
// after limit units. wall runs from the first issue to the last
// completion; peaks holds each batch's peak resident memory.
func closedLoop(r runner, name string, deadline time.Time, limit int, tr *tracer) (units []unitResult, wall time.Duration, peaks []float64) {
	n := r.clients()
	var mu sync.Mutex // guards next, units and peaks
	next := 0
	issue := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if (limit > 0 && next >= limit) || (limit == 0 && next%r.batch() == 0 && !time.Now().Before(deadline)) {
			return 0, false
		}
		if next > 0 && next%r.batch() == 0 {
			peaks = append(peaks, batchPeakRSSMB())
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	batchPeakRSSMB() // the first batch's peak starts here
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := issue()
				if !ok {
					return
				}
				id := tr.begin(name+".unit", -1, i)
				u := r.unit(i, tr, id)
				tr.end(id)
				u.index = i
				mu.Lock()
				units = append(units, u)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall = time.Since(start)
	peaks = append(peaks, batchPeakRSSMB())
	sort.Slice(units, func(a, b int) bool { return units[a].index < units[b].index })
	return units, wall, peaks
}

func latencies(units []unitResult) []float64 {
	out := make([]float64, len(units))
	for i, u := range units {
		out[i] = u.ms
	}
	return out
}

func untracedRun(e *env, mk func(*env) (runner, error), d time.Duration, g *golden, update bool) (*result, error) {
	var setupTimes []float64
	r, err := setup(e, mk, &setupTimes)
	if err != nil {
		return nil, err
	}
	units, wall, peaks := closedLoop(r, "", time.Now().Add(d), 0, nil)
	cached := r.cached()
	r.close()
	if !update {
		g.check(e.seed, units)
	}
	if len(units) == 0 || len(cached) == 0 {
		return nil, fmt.Errorf("measured %d units and %d cached units; need at least one of each", len(units), len(cached))
	}
	after, err := setup(e, mk, &setupTimes)
	if err != nil {
		return nil, err
	}
	after.close()
	setupS := median(setupTimes)

	res := &result{units: units}
	res.account(units)
	res.account(cached)
	var work float64
	for _, u := range units {
		work += u.work
	}
	lat := latencies(units)
	m := map[string]float64{
		"setup_s":       setupS,
		"units_per_s":   work / wall.Seconds(),
		"unit_p50_ms":   median(lat),
		"cached_p50_ms": median(latencies(cached)),
		"peak_rss_mb":   median(peaks),
	}
	if v, p, ok := tail(lat); ok {
		m["unit_tail_ms"] = v
		res.notes = append(res.notes, fmt.Sprintf("unit_tail_ms is p%.1f of %d units (%d beyond it)", p, len(lat), tailBeyond))
	} else {
		m["unit_tail_ms"] = sorted(lat)[len(lat)-1]
		res.notes = append(res.notes, fmt.Sprintf("unit_tail_ms: only %d units, below the %d needed for a tail; reporting the maximum", len(lat), tailBeyond+1))
	}
	res.notes = append(res.notes, fmt.Sprintf("measured %d units (%d cached) in %.3f s on %d clients, setup median of %d, peak_rss_mb median of %d batch peaks (%.1f-%.1f MB)",
		len(units), len(cached), wall.Seconds(), r.clients(), len(setupTimes), len(peaks), sorted(peaks)[0], sorted(peaks)[len(peaks)-1]))
	if n, ok := r.(interface{ notes() []string }); ok {
		res.notes = append(res.notes, n.notes()...)
	}
	return res, res.set(endToEnd, m)
}

// tracedRun measures the same units twice on fresh instances: first
// untraced for half the run length, then traced (spans + CPU profile) for
// exactly as many units. The wall-time difference is the tracing
// overhead. A throwaway instance runs a few units first, so neither
// pass pays the process's one-time warm-up. A benchmarked workload's
// companion then runs its traced pass under the same tracer.
func tracedRun(e *env, mk func(*env) (runner, error), name string, d time.Duration, g *golden) (*result, error) {
	warm, err := mk(e)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	closedLoop(warm, name, time.Time{}, 2*warm.clients(), nil)
	warm.close()
	plain, err := mk(e)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	base, baseWall, _ := closedLoop(plain, name, time.Now().Add(d/2), 0, nil)
	plain.close()

	r, err := mk(e)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer r.close()
	tr := newTracer()
	var prof bytes.Buffer
	before := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	units, wall, _ := closedLoop(r, name, time.Time{}, len(base), tr)
	pprof.StopCPUProfile()
	after := readRuntime()
	g.check(e.seed, units)
	out, err := outBase(e.root, name, e.seed, 1)
	if err != nil {
		return nil, err
	}
	frac, samples, err := profileFractions(out+".pprof", prof.Bytes())
	if err != nil {
		return nil, err
	}
	res := &result{units: units}
	res.notes = append(res.notes, fmt.Sprintf("traced %d units: untraced %.3f s, traced %.3f s", len(units), baseWall.Seconds(), wall.Seconds()),
		splitNote("traced units", frac))
	res.account(units)
	res.account(r.cached())
	res.account(r.extras(tr))

	var comp runner
	var compUnits []unitResult
	cname := companions[name]
	if cname != "" {
		var cprof []byte
		if comp, compUnits, cprof, err = companionPass(e, cname, tr); err != nil {
			return nil, err
		}
		defer comp.close()
		cfrac, csamples, err := profileFractions(out+"."+cname+".pprof", cprof)
		if err != nil {
			return nil, err
		}
		res.notes = append(res.notes, splitNote(cname+" units", cfrac))
		// The reported split is that of both passes' samples together.
		for l, f := range frac {
			frac[l] = f * float64(samples)
		}
		for l, f := range cfrac {
			frac[l] += f * float64(csamples)
		}
		samples += csamples
		for l := range frac {
			frac[l] = ratio(frac[l], float64(samples))
		}
		res.account(compUnits)
		res.account(comp.cached())
		res.account(comp.extras(tr))
	}

	res.spans = tr.snapshot()
	if err := checkNesting(res.spans); err != nil {
		res.failures = append(res.failures, "trace: "+err.Error())
	}
	n := float64(len(units))
	m := map[string]float64{
		"trace.overhead_ms":            (wall - baseWall).Seconds() * 1e3,
		"trace.overhead_frac":          ratio((wall - baseWall).Seconds(), baseWall.Seconds()),
		"trace.spans":                  float64(len(res.spans)),
		"profile.samples":              float64(samples),
		"runtime.alloc_bytes_per_unit": float64(after.allocBytes-before.allocBytes) / n,
		"runtime.mallocs_per_unit":     float64(after.mallocs-before.mallocs) / n,
		"runtime.gc_frac":              ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU),
	}
	var fracSum float64
	for _, l := range profiledLayers {
		m[l+".self_frac"] = frac[l]
		fracSum += frac[l]
	}
	if fracSum > 1+1e-9 {
		res.failures = append(res.failures, fmt.Sprintf("profile: self fractions sum to %v > 1", fracSum))
	}
	r.layers(res.spans, units, m)
	for _, x := range []runner{r, comp} {
		if n, ok := x.(interface{ notes() []string }); ok {
			res.notes = append(res.notes, n.notes()...)
		}
	}
	if comp != nil {
		comp.layers(res.spans, compUnits, m)
	}
	res.notes = append(res.notes, fmt.Sprintf("%d spans, %d profile samples", len(res.spans), samples), selfTimeNote(res.spans))
	return res, res.set(perLayer, m)
}

// companionPass runs workload name's traced pass: its first
// companionUnits[name] units under tr, with a CPU profile of their own,
// checked against its golden.
func companionPass(e *env, name string, tr *tracer) (runner, []unitResult, []byte, error) {
	g, err := loadGolden(e.root, name)
	if err != nil {
		return nil, nil, nil, err
	}
	r, err := workloads[name](e)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s setup: %w", name, err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		r.close()
		return nil, nil, nil, err
	}
	units, _, _ := closedLoop(r, name, time.Time{}, companionUnits[name], tr)
	pprof.StopCPUProfile()
	g.check(e.seed, units)
	return r, units, prof.Bytes(), nil
}

// runtimeSample is the process's cumulative allocation and CPU
// accounting at one instant.
type runtimeSample struct {
	allocBytes, mallocs uint64
	gcCPU, totalCPU     float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	out := runtimeSample{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[1].Value.Float64()
	}
	return out
}

// batchPeakRSSMB returns the peak resident set size since the previous
// call (Linux VmHWM, then reset through /proc/self/clear_refs), so that
// peak_rss_mb is the median batch's peak rather than the run's single
// worst garbage-collection cycle. Where the reset is unavailable it
// returns the process's peak so far (getrusage max RSS).
func batchPeakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			f := strings.Fields(line)
			if len(f) != 3 || f[0] != "VmHWM:" || f[2] != "kB" {
				continue
			}
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil && os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil {
				return kb / 1024
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// outBase is the path prefix of a run's output files under .bench_build.
func outBase(root, name string, seed uint64, trace int) (string, error) {
	dir := filepath.Join(root, ".bench_build", "perfbench-out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, trace)), nil
}

// writeRecord keeps the run's full record (stamp, result, notes,
// failures; spans for traced runs, next to the profile) under
// .bench_build.
func writeRecord(root, name string, seed uint64, trace int, st stamp, out map[string]any, res *result) error {
	base, err := outBase(root, name, seed, trace)
	if err != nil {
		return err
	}
	rec := map[string]any{"stamp": st, "result": out, "notes": res.notes, "failures": res.failures}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if trace == 0 {
		return nil
	}
	return writeSpans(base+".spans.gz", res.spans)
}
