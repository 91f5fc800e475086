// Package experiments regenerates every table and figure of the SafeGuard
// paper's evaluation from this repository's simulators. Each experiment has
// a Quick preset (minutes, used by the benchmark harness) and accepts
// custom budgets for full runs. DESIGN.md maps experiment IDs to paper
// artifacts; EXPERIMENTS.md records paper-vs-measured outcomes.
package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"

	"safeguard/internal/bits"
	"safeguard/internal/ecc"
	fm "safeguard/internal/faultmodel"
	"safeguard/internal/faultsim"
	"safeguard/internal/mac"
	"safeguard/internal/pool"
	"safeguard/internal/sim"
	"safeguard/internal/telemetry"
	"safeguard/internal/workload"
)

// ---------------------------------------------------------------------------
// Performance experiments (Figures 7, 11, 12, 13)
// ---------------------------------------------------------------------------

// PerfConfig bounds a performance sweep.
type PerfConfig struct {
	// InstrPerCore / WarmupInstr are per-core instruction budgets.
	InstrPerCore int64
	WarmupInstr  int64
	// Seeds are averaged to damp simulation noise.
	Seeds []uint64
	// MACLatencyCPU is the MAC-check latency (Table II default: 8).
	MACLatencyCPU int64
	// Workloads defaults to the full SPEC2017-rate list.
	Workloads []string
	// Parallelism bounds worker goroutines (0 = GOMAXPROCS).
	Parallelism int
	// Mitigation attaches an in-controller Row-Hammer mitigation (by
	// memctrl registry name) to every run of the sweep, baseline
	// included — the figure shapes must hold with plugins enabled.
	Mitigation string
	// RHThreshold sizes the mitigation (0 = Table I default).
	RHThreshold int
	// Telemetry, when set, aggregates every simulation run's counters.
	// Each run writes a private registry merged in with commutative
	// operations, so the sweep total is independent of worker count and
	// job scheduling.
	Telemetry *telemetry.Registry
	// Trace, when set, receives every run's controller command events.
	// Events from concurrent runs interleave (each still carries its own
	// run's cycle stamp), so this is a debugging aid, not a deterministic
	// artifact — use workers=1 for a reproducible stream.
	Trace *telemetry.Tracer
	// Attrib turns on cycle attribution in every run; per-run CPI stacks
	// land in Telemetry as attrib.cpi.* counters (commutative, so sweep
	// totals are worker-count independent).
	Attrib bool
	// WarmPool, when set, warm-starts every run from a pooled post-warm-up
	// snapshot (WarmKey cell): hits skip the warm-up phase entirely,
	// misses run cold and deposit their capture. Results stay bit-identical
	// to cold runs either way. Ignored when Trace is set (a shared tracer
	// cannot be restored per run).
	WarmPool WarmStore
}

// QuickPerf is the benchmark-harness preset.
func QuickPerf() PerfConfig {
	return PerfConfig{
		InstrPerCore:  400_000,
		WarmupInstr:   200_000,
		Seeds:         []uint64{1, 2},
		MACLatencyCPU: 8,
	}
}

// FullPerf is the paper-scale preset (longer runs, three seeds).
func FullPerf() PerfConfig {
	return PerfConfig{
		InstrPerCore:  1_000_000,
		WarmupInstr:   300_000,
		Seeds:         []uint64{1, 2, 3},
		MACLatencyCPU: 8,
	}
}

// PerfRow is one workload's result across schemes.
type PerfRow struct {
	Workload string
	BaseIPC  float64
	// Slowdown maps scheme -> fractional slowdown vs the baseline
	// (0.007 = 0.7%).
	Slowdown map[sim.Scheme]float64
}

// PerfResult is a full sweep.
type PerfResult struct {
	Rows    []PerfRow
	Schemes []sim.Scheme
}

// Average returns the mean fractional slowdown of a scheme.
func (r PerfResult) Average(s sim.Scheme) float64 {
	var sum float64
	for _, row := range r.Rows {
		sum += row.Slowdown[s]
	}
	return sum / float64(len(r.Rows))
}

// Worst returns the workload with the largest slowdown under the scheme.
func (r PerfResult) Worst(s sim.Scheme) (string, float64) {
	name, worst := "", -1.0
	for _, row := range r.Rows {
		if row.Slowdown[s] > worst {
			name, worst = row.Workload, row.Slowdown[s]
		}
	}
	return name, worst
}

// Cell is one perf simulation: the unit every perf experiment is a list
// of, and the unit a Plan runs once however many figures use it. Cells
// are comparable, so a Cell is its own deduplication key.
type Cell struct {
	Workload      string
	Scheme        sim.Scheme
	Seed          uint64
	InstrPerCore  int64
	WarmupInstr   int64
	MACLatencyCPU int64
	ECCDecodeCPU  int64
	Mitigation    string
	RHThreshold   int
	Attrib        bool
}

// canonical pins a Baseline cell's MAC latency to Table II's 8. Baseline
// never charges a MAC check (sim's joinLeg zeroes the term; see
// sim.TestBaselineIgnoresMACLatency), so one Baseline cell serves every
// MAC latency — every Figure 13 point shares it.
func (c Cell) canonical() Cell {
	if c.Scheme == sim.Baseline {
		c.MACLatencyCPU = 8
	}
	return c
}

// Config builds the cell's simulator configuration: Table II's machine
// with the cell's workload, scheme, seed, budgets and knobs.
func (c Cell) Config() (sim.Config, error) {
	p, err := workload.ByName(c.Workload)
	if err != nil {
		return sim.Config{}, err
	}
	sc := sim.DefaultConfig()
	sc.Workload = p
	sc.Scheme = c.Scheme
	sc.Seed = c.Seed
	sc.InstrPerCore, sc.WarmupInstr = c.InstrPerCore, c.WarmupInstr
	sc.MACLatencyCPU, sc.ECCDecodeCPU = c.canonical().MACLatencyCPU, c.ECCDecodeCPU
	sc.Mitigation, sc.RHThreshold = c.Mitigation, c.RHThreshold
	sc.Attrib = c.Attrib
	return sc, nil
}

// RunCells simulates every cell once, in order, on cfg.Parallelism
// workers (GOMAXPROCS when 0), and hands each finished cell to done on
// the calling goroutine, one call at a time. Of cfg it reads only the
// pool fields: with Telemetry set each run writes a private registry,
// passed to done unmerged; Trace gets every run's events; WarmPool
// warm-starts runs unless Trace is set.
// Progress rides ctx: "warmup", then "measure" per finished cell. The
// first error stops the pool; on cancellation the cells that finished
// have been handed to done before ctx's error returns.
func RunCells(ctx context.Context, cfg PerfConfig, cells []Cell, done func(i int, res sim.Result, reg *telemetry.Registry)) error {
	pv := telemetry.ProgressFromContext(ctx)
	pv.Set(telemetry.Progress{Phase: "warmup", Done: 0, Total: int64(len(cells))})
	n := 0
	return pool.Run(ctx, len(cells), cfg.Parallelism, func(i int) (cellRun, error) {
		return cells[i].run(ctx, cfg)
	}, func(i int, r cellRun) bool {
		n++
		pv.Set(telemetry.Progress{Phase: "measure", Done: int64(n), Total: int64(len(cells))})
		done(i, r.res, r.reg)
		return false
	})
}

// cellRun is one finished cell inside RunCells.
type cellRun struct {
	res sim.Result
	reg *telemetry.Registry
}

// run simulates the cell with cfg's telemetry, trace and warm pool.
func (c Cell) run(ctx context.Context, cfg PerfConfig) (cellRun, error) {
	fail := func(err error) (cellRun, error) {
		return cellRun{}, fmt.Errorf("experiments: %s/%v/seed%d: %w", c.Workload, c.Scheme, c.Seed, err)
	}
	sc, err := c.Config()
	if err != nil {
		return fail(err)
	}
	if cfg.Telemetry != nil {
		sc.Telemetry = telemetry.NewRegistry()
	}
	sc.Trace = cfg.Trace
	res, err := WarmRun(ctx, sc, cfg.WarmPool)
	if err != nil {
		return fail(err)
	}
	return cellRun{res: res, reg: sc.Telemetry}, nil
}

// Figure7 reproduces the SafeGuard-vs-SECDED performance figure: the
// baseline is conventional SECDED (no MAC), SafeGuard adds the per-read MAC
// check. Paper: 0.7% average, omnetpp worst at 3.6%.
func Figure7(ctx context.Context, cfg PerfConfig) (PerfResult, error) {
	return RunSchemes(ctx, cfg, []sim.Scheme{sim.SafeGuard})
}

// Figure11 reproduces SafeGuard-vs-Chipkill. The timing model of the
// conventional Chipkill baseline and of SafeGuard-Chipkill match their
// SECDED counterparts (ECC off the critical path vs one MAC check per
// read), so the experiment mirrors Figure 7 — as the paper itself notes
// ("similar to the slowdown when implemented with SECDED").
func Figure11(ctx context.Context, cfg PerfConfig) (PerfResult, error) {
	return RunSchemes(ctx, cfg, []sim.Scheme{sim.SafeGuard})
}

// Figure12 compares the MAC organizations: SafeGuard vs SGX-style (extra
// MAC-line read per read) vs Synergy-style (extra parity write per write).
// Paper: 0.7% / 18.7% / 7.8%.
func Figure12(ctx context.Context, cfg PerfConfig) (PerfResult, error) {
	return RunSchemes(ctx, cfg, macOrgs)
}

// Figure13Point is one MAC-latency sample of the sensitivity sweep.
type Figure13Point struct {
	MACLatencyCPU int64
	Average       map[sim.Scheme]float64
}

// Figure13 sweeps the MAC latency (paper: 8 to 80 processor cycles) for the
// three MAC organizations and reports the average slowdown at each point.
// All points run as one cell set, so Baseline runs once per workload and
// seed rather than once per point.
func Figure13(ctx context.Context, cfg PerfConfig, latencies []int64) ([]Figure13Point, error) {
	if len(latencies) == 0 {
		latencies = []int64{8, 16, 40, 80}
	}
	res, err := NewPlan(cfg, Figure{Schemes: macOrgs, Latencies: latencies}).Run(ctx)
	return res[0].Points, err
}

// RunSchemes runs the slowdown sweep of any scheme set against Baseline,
// averaging seeds. A failing simulation or a cancelled context returns
// its error with every workload whose cells all finished.
func RunSchemes(ctx context.Context, cfg PerfConfig, schemes []sim.Scheme) (PerfResult, error) {
	res, err := NewPlan(cfg, Figure{Schemes: schemes}).Run(ctx)
	return res[0].Perf, err
}

// ---------------------------------------------------------------------------
// Reliability experiments (Figures 6, 10; Table IV)
// ---------------------------------------------------------------------------

// QuickReliability is the benchmark-harness Monte-Carlo budget.
func QuickReliability() faultsim.Config {
	return faultsim.Config{Modules: 300_000, Years: 7, FITScale: 1, Seed: 42}
}

// Figure6 runs the 7-year lifetime study for SECDED and both SafeGuard
// variants. Paper: no-parity ≈ 1.25x SECDED, with parity ≈ identical.
func Figure6(ctx context.Context, cfg faultsim.Config) ([]faultsim.Result, error) {
	return faultsim.RunAllContext(ctx, []faultsim.Evaluator{
		faultsim.SECDEDEval{},
		faultsim.SafeGuardSECDEDEval{ColumnParity: false},
		faultsim.SafeGuardSECDEDEval{ColumnParity: true},
	}, cfg)
}

// Figure10 runs Chipkill vs SafeGuard-Chipkill at 1x and 10x FIT rates.
func Figure10(ctx context.Context, cfg faultsim.Config) (map[float64][]faultsim.Result, error) {
	out := make(map[float64][]faultsim.Result)
	for _, scale := range []float64{1, 10} {
		c := cfg
		c.FITScale = scale
		res, err := faultsim.RunAllContext(ctx, []faultsim.Evaluator{
			faultsim.ChipkillEval{},
			faultsim.SafeGuardChipkillEval{},
		}, c)
		if err != nil {
			return out, err
		}
		out[scale] = res
	}
	return out, nil
}

// Table4Cell is one (scheme, fault mode) entry of the resiliency matrix.
type Table4Cell struct {
	Detect  bool // never delivered corrupted data silently
	Correct bool // restored the original data in every trial
	Silent  int  // silent corruptions observed
	Trials  int
}

// Table4 reproduces the paper's resiliency matrix by injecting each fault
// mode into encoded lines and classifying the decode outcomes. The paper's
// asterisks (detect sometimes) appear here as Detect=false with Silent>0.
func Table4(trials int, seed uint64) map[string]map[fm.Mode]Table4Cell {
	rng := rand.New(rand.NewPCG(seed, 99))
	keyed := testKey()
	out := make(map[string]map[fm.Mode]Table4Cell)
	schemes := []struct {
		name string
		mk   func() ecc.Codec
	}{
		{"SECDED", func() ecc.Codec { return ecc.NewSECDED() }},
		{"SafeGuard", func() ecc.Codec { return ecc.NewSafeGuardSECDED(keyed) }},
	}
	for _, s := range schemes {
		out[s.name] = make(map[fm.Mode]Table4Cell)
		for _, mode := range fm.Modes {
			codec := s.mk()
			cell := Table4Cell{Detect: true, Correct: true, Trials: trials}
			for i := 0; i < trials; i++ {
				var line bits.Line
				for w := range line {
					line[w] = rng.Uint64()
				}
				addr := uint64(i) * 64
				meta := codec.Encode(line, addr)
				bad, badMeta := line, meta
				injectMode(&bad, &badMeta, mode, rng)
				if bad == line && badMeta == meta {
					continue
				}
				res := codec.Decode(bad, badMeta, addr)
				switch {
				case res.Status == ecc.DUE:
					cell.Correct = false
				case res.Line == line:
					// corrected
				default:
					cell.Silent++
					cell.Detect = false
					cell.Correct = false
				}
			}
			out[s.name][mode] = cell
		}
	}
	return out
}

// injectMode maps a Table III fault mode onto one line's x8 footprint.
func injectMode(line *bits.Line, meta *uint64, mode fm.Mode, rng *rand.Rand) {
	switch mode {
	case fm.SingleBit:
		ecc.FlipDataBit(line, rng.IntN(bits.LineBits))
	case fm.SingleColumn:
		ecc.InjectColumnFaultX8(line, meta, rng.IntN(8), rng.IntN(8), rng)
	case fm.SingleWord:
		ecc.InjectWordFaultX8(line, meta, rng.IntN(8), rng.IntN(8), rng)
	default:
		// Row, bank, multi-bank and multi-rank faults corrupt a chip's
		// whole contribution to the line.
		ecc.InjectChipFaultX8(line, meta, rng.IntN(9), rng)
	}
}

func testKey() *mac.Keyed {
	var key [16]byte
	for i := range key {
		key[i] = byte(0x5A + i)
	}
	return mac.NewKeyed(key)
}

// ---------------------------------------------------------------------------
// MAC-escape experiments (Sections V-C, VII-E) — empirical companions to
// internal/analysis's closed forms, run at observable MAC widths.
// ---------------------------------------------------------------------------

// EscapeMeasurement is an empirical escape-rate sample.
type EscapeMeasurement struct {
	Policy          ecc.CorrectionPolicy
	MACWidth        int
	Trials          int
	Escapes         int
	FaultyMACChecks int
}

// Rate returns the per-fault escape rate.
func (m EscapeMeasurement) Rate() float64 { return float64(m.Escapes) / float64(m.Trials) }

// MeasureEscapes injects a permanent whole-chip fault into `trials`
// distinct lines under SafeGuard-Chipkill with the given policy and a
// deliberately narrow MAC, counting silent escapes. With the analysis
// package's 1/2^n model this validates the paper's 18x iterative-vs-eager
// exposure gap at widths where escapes are observable.
func MeasureEscapes(policy ecc.CorrectionPolicy, macWidth, trials int, seed uint64) (EscapeMeasurement, error) {
	rng := rand.New(rand.NewPCG(seed, 7))
	codec, err := ecc.NewSafeGuardChipkillPolicy(testKey(), policy, macWidth)
	if err != nil {
		return EscapeMeasurement{}, err
	}
	m := EscapeMeasurement{Policy: policy, MACWidth: macWidth, Trials: trials}
	const chip = 5
	for i := 0; i < trials; i++ {
		var line bits.Line
		for w := range line {
			line[w] = rng.Uint64()
		}
		addr := uint64(i) * 64
		meta := codec.Encode(line, addr)
		bad, badMeta := line, meta
		ecc.InjectChipFaultX4(&bad, &badMeta, chip, rng)
		res := codec.Decode(bad, badMeta, addr)
		m.FaultyMACChecks += res.FaultyMACChecks
		if res.Status != ecc.DUE && res.Line != line {
			m.Escapes++
		}
	}
	return m, nil
}
