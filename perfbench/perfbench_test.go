package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"safeguard/internal/experiments"
	"safeguard/internal/sim"
	"safeguard/internal/workload"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, n := range []int{0, 1, 10} {
		if _, _, ok := tail(seq(n)); ok {
			t.Errorf("n=%d: got a tail, want none below %d samples", n, tailBeyond+1)
		}
	}
	cases := []struct {
		n          int
		value, pct float64
	}{
		{11, 1, 100.0 / 11}, // only the minimum has ten samples above it
		{20, 10, 50},        // ten beyond the 10th of 20
		{100, 90, 90},       // p90
		{1000, 990, 99},     // p99
		{1010, 1000, 1000 / 1010.0 * 100},
	}
	for _, c := range cases {
		v, p, ok := tail(seq(c.n))
		if !ok || v != c.value || math.Abs(p-c.pct) > 1e-9 {
			t.Errorf("n=%d: tail = %v at p%v (ok=%v), want %v at p%v", c.n, v, p, ok, c.value, c.pct)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, tailBeyond)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "unit", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 50, Parent: 0},
		{Name: "b", Start: 30, End: 70, Parent: 0}, // overlaps a
		{Name: "c", Start: 90, End: 100, Parent: 0},
		{Name: "a.child", Start: 20, End: 25, Parent: 1},
	}
	got := selfTimes(spans)
	want := map[string]int64{"unit": 100 - 60 - 10, "a": 40 - 5, "b": 40, "c": 10, "a.child": 5}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
	if err := checkNesting(spans); err != nil {
		t.Errorf("nested spans rejected: %v", err)
	}
	spans = append(spans, span{Name: "late", Start: 95, End: 120, Parent: 0})
	if err := checkNesting(spans); err == nil {
		t.Error("a child ending after its parent passed the nesting check")
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.endAs(id, "y")
	if id != -1 || tr.snapshot() != nil {
		t.Fatalf("nil tracer recorded something: id=%d", id)
	}
	tr = newTracer()
	p := tr.begin("parent", -1, 3)
	c := tr.begin("child", p, 3)
	tr.endAs(c, "child.ok")
	tr.end(p)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Name != "child.ok" || spans[1].Parent != 0 || spans[0].Unit != 3 {
		t.Fatalf("spans = %+v", spans)
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
}

// topFixture is `go tool pprof -top -sample_index=samples` output in the
// shape the installed toolchain prints it.
const topFixture = `File: perfbench
Type: samples
Duration: 1s, Total samples = 50
Showing nodes accounting for 50, 100% of 50 total
      flat  flat%   sum%        cum   cum%
        20 40.00% 40.00%         20 40.00%  safeguard/internal/memctrl.(*Controller).schedule
        10 20.00% 60.00%         10 20.00%  safeguard/internal/cpu.(*Core).retire (inline)
         6 12.00% 72.00%          6 12.00%  sort.Slice
         5 10.00% 82.00%         45 90.00%  safeguard/internal/sim.(*System).RunContext
         4  8.00% 90.00%          4  8.00%  runtime.mallocgc
         4  8.00% 98.00%          4  8.00%  safeguard/internal/ecc.(*SafeGuardSECDED).Decode.func1
         1  2.00%   100%          1  2.00%  internal/runtime/maps.(*Map).getWithKeySmall
         0     0%   100%          3  6.00%  safeguard/internal/jobs.(*Manager).run
`

func TestProfileAttributionByPackage(t *testing.T) {
	frac, n, err := topFractions([]byte(topFixture))
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("total samples = %d, want 50", n)
	}
	// The inlined cpu function is charged to cpu, sort.Slice to no layer,
	// internal/runtime to runtime; a zero-flat row adds nothing.
	want := map[string]float64{"sim": 0.1, "memctrl": 0.4, "cpu": 0.2, "runtime": 0.1, "ecc": 0.08, "jobs": 0}
	var total float64
	for l, f := range frac {
		total += f
		if math.Abs(f-want[l]) > 1e-12 {
			t.Errorf("%s = %v, want %v", l, f, want[l])
		}
	}
	if len(frac) != len(want) || math.Abs(total-0.88) > 1e-12 {
		t.Errorf("fractions %v sum to %v, want the 6 layers summing to 0.88 (sort is outside)", frac, total)
	}
	for _, bad := range []string{"not pprof output", strings.Replace(topFixture, "        20 ", "      20ms ", 1)} {
		if _, _, err := topFractions([]byte(bad)); err == nil {
			t.Errorf("accepted %q", bad[:20])
		}
	}
}

// spin burns CPU in this package, outside every layer.
func spin(d time.Duration) (x uint64) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for j := 0; j < 1000; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestSelfFractionsReadsARealProfile runs the installed go tool pprof on
// a profile of this process: everything sampled is accounted for.
func TestSelfFractionsReadsARealProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for 300 ms")
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	frac, n, err := profileFractions(filepath.Join(t.TempDir(), "p.pprof"), prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, f := range frac {
		total += f
	}
	if n < 5 || total > 1+1e-9 {
		t.Fatalf("%d samples, fractions %v summing to %v", n, frac, total)
	}
}

func TestGoldenFlagsOneChangedDigit(t *testing.T) {
	ipc := "mcf/SafeGuard/seed1001 ipc=0.61234567890123456"
	artifact := []byte(`{"schema":"sgserve-artifact/1","result":{"failed":7910}}`)
	flipped := append([]byte(nil), artifact...)
	flipped[len(flipped)-3] ^= 1
	g := &golden{Seed: 1, Digests: map[string]string{"0": ipc, "1": digestBytes(artifact)}}

	units := []unitResult{{index: 0, digest: ipc}, {index: 1, digest: digestBytes(artifact)}, {index: 2, digest: "no golden"}}
	g.check(1, units)
	for _, u := range units {
		if u.err != nil {
			t.Fatalf("matching output flagged: %v", u.err)
		}
	}
	bad := []unitResult{
		{index: 0, digest: strings.Replace(ipc, "0.6123", "0.6124", 1)},
		{index: 1, digest: digestBytes(flipped)},
	}
	g.check(1, bad)
	for _, u := range bad {
		if u.err == nil {
			t.Errorf("unit %d: changed output %q passed the golden", u.index, u.digest)
		}
	}
	other := []unitResult{{index: 0, digest: "anything"}}
	g.check(2, other)
	if other[0].err != nil {
		t.Error("a seed without a golden was checked against another seed's golden")
	}
}

// TestBenchmarkJSONMatchesMetricLists keeps BENCHMARK.json and the
// program's metric lists and workloads in step.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(benchmarked, " ") {
		t.Errorf("BENCHMARK.json workloads %v, the program benchmarks %v", names, benchmarked)
	}
	for _, w := range benchmarked {
		c := companions[w]
		if workloads[w] == nil || workloads[c] == nil || companionUnits[c] < 1 {
			t.Errorf("workload %q or its companion %q is not implemented", w, c)
		}
	}
}

// TestPerfCellsMatchExperimentsSweep pins perf-sweep's per-unit
// configuration to experiments' own sweep: on a tiny budget, the
// slowdown the benchmark derives from its units equals RunSchemes'.
func TestPerfCellsMatchExperimentsSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	e := &env{ctx: context.Background(), seed: 3, workers: 1}
	p := &perfSweep{e: e, quick: experiments.QuickPerf(), ipc: map[int]float64{}, results: map[int]sim.Result{}}
	p.quick.InstrPerCore, p.quick.WarmupInstr = 20_000, 10_000
	for _, pr := range perfProfiles {
		w, err := workload.ByName(pr.name)
		if err != nil {
			t.Fatal(err)
		}
		p.params = append(p.params, w)
	}
	// Units 0 and 6: mcf under Baseline and SafeGuard, round 0.
	for _, i := range []int{0, 6} {
		if u := p.unit(i, nil, -1); u.err != nil {
			t.Fatal(u.err)
		}
	}
	cfg := p.quick
	cfg.Workloads, cfg.Seeds, cfg.Parallelism = []string{"mcf"}, []uint64{p.config(0).Seed}, 1
	res, err := experiments.RunSchemes(e.ctx, cfg, []sim.Scheme{sim.SafeGuard})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.BaseIPC != p.ipc[0] || row.Slowdown[sim.SafeGuard] != p.ipc[0]/p.ipc[6]-1 {
		t.Fatalf("experiments: base %v slowdown %v; benchmark: base %v slowdown %v",
			row.BaseIPC, row.Slowdown[sim.SafeGuard], p.ipc[0], p.ipc[0]/p.ipc[6]-1)
	}
}

// TestIntegrityOutputsIgnoreWorkerCount pins integrity-rw's outputs to
// the seed alone: the golden digests do not depend on how many workers
// the host offers.
func TestIntegrityOutputsIgnoreWorkerCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight integrity-rw units")
	}
	var digests [2]string
	for k, workers := range []int{1, 2} {
		r, err := newIntegrityRW(&env{ctx: context.Background(), seed: 1, workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		units, _, _ := closedLoop(r, "", time.Time{}, integrityCheckpoint, nil)
		last := units[len(units)-1]
		if last.err != nil || last.digest == "" {
			t.Fatalf("workers=%d: unit %d: digest %q, err %v", workers, last.index, last.digest, last.err)
		}
		digests[k] = last.digest
	}
	if digests[0] != digests[1] {
		t.Fatalf("digest with 1 worker %q != with 2 workers %q", digests[0], digests[1])
	}
}
