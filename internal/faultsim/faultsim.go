package faultsim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	fm "safeguard/internal/faultmodel"
	"safeguard/internal/telemetry"
)

// Config parameterizes a Monte-Carlo lifetime study.
type Config struct {
	// Modules is the Monte-Carlo population size (the paper uses 10M
	// devices; tests use far fewer).
	Modules int
	// Years of simulated deployment (paper: 7).
	Years float64
	// FITScale multiplies every Table III rate (the 10x study of
	// Figure 10 uses 10).
	FITScale float64
	// Rates overrides the fault rates; nil selects Table III.
	Rates map[fm.Mode]fm.Rate
	// Seed makes runs reproducible.
	Seed uint64
	// Workers bounds parallelism; <=0 selects GOMAXPROCS.
	Workers int
	// ScrubIntervalHours enables patrol scrubbing: a *transient* fault
	// that the scheme can correct in isolation is repaired at the first
	// scrub pass after its arrival, so it can only pair up with faults
	// arriving inside its scrub window. Zero disables scrubbing (the
	// paper's configuration). Permanent faults are never scrubbed away.
	ScrubIntervalHours float64
	// RetireIntervalHours enables periodic row/region retirement — the
	// lifetime-sim view of the response pipeline's retire stage. Any
	// survivable fault (transient or permanent) is detected when the
	// scheme corrects around it, and the damaged region is remapped to a
	// spare at the first retire pass after its arrival; from then on new
	// faults cannot pair with it. Zero disables retirement.
	RetireIntervalHours float64
	// Telemetry, when set, receives the study's aggregate counters and the
	// faults-per-module histogram. Workers accumulate into private
	// registries merged after the pool drains, so the published numbers
	// are bit-identical across worker counts.
	Telemetry *telemetry.Registry
	// CIHalfWidth, when positive, switches to adaptive sampling: 4096-
	// module blocks are simulated until the Wilson 95% confidence
	// interval on the end-of-life failure probability is narrower than
	// ±CIHalfWidth. Modules then acts as a population cap rather than a
	// fixed size. The stopping point is a deterministic function of the
	// seed alone, so seeded adaptive runs stay bit-identical across
	// worker counts. Zero keeps the fixed-population behaviour.
	CIHalfWidth float64
}

// DefaultConfig mirrors the paper's setup at a tractable default population.
func DefaultConfig() Config {
	return Config{Modules: 1_000_000, Years: 7, FITScale: 1, Seed: 1}
}

// Result summarizes one scheme's lifetime study.
type Result struct {
	Scheme  string
	Config  Config
	Modules int
	// FailedByYear[y] counts modules whose first failure occurred within
	// year y+1 (cumulative).
	FailedByYear []int
	// Failed is the total failed module count at end of life.
	Failed int
	// SingleFaultFailures / PairFailures break down the causes.
	SingleFaultFailures int
	PairFailures        int
	// FailuresByMode counts, for single-fault failures, the triggering
	// mode.
	FailuresByMode map[fm.Mode]int
	// Adaptive reports whether adaptive sampling (Config.CIHalfWidth > 0)
	// chose the population size.
	Adaptive bool
	// BlocksRun counts the 4096-module blocks aggregated into this result
	// (adaptive runs only; zero otherwise).
	BlocksRun int
	// CIHalfWidth is the achieved Wilson 95% half-width on Probability()
	// at the stopping point (adaptive runs only; zero otherwise).
	CIHalfWidth float64
}

// ProbabilityByYear returns the cumulative failure probability per year.
func (r Result) ProbabilityByYear() []float64 {
	out := make([]float64, len(r.FailedByYear))
	for i, f := range r.FailedByYear {
		out[i] = float64(f) / float64(r.Modules)
	}
	return out
}

// Probability returns the end-of-life failure probability.
func (r Result) Probability() float64 {
	return float64(r.Failed) / float64(r.Modules)
}

// MaxYears bounds Config.Years: the study keeps one failure tally per
// year, and a century is far past any DRAM deployment.
const MaxYears = 100

// blockSize is the module count of one deterministic work unit. Each
// block owns an RNG seeded by (cfg.Seed, block index), so the sampled
// fault histories depend only on the seed and the module's block — never
// on how many workers happen to pull blocks. That makes seeded runs
// bit-identical across worker counts.
const blockSize = 4096

// partial accumulates one worker's per-block tallies. All fields are
// order-independent sums, so merging partials in worker order yields the
// same Result regardless of which worker processed which block.
type partial struct {
	failedByYear []int
	single, pair int
	byMode       map[fm.Mode]int
	modules      int
	// reg is the worker-private telemetry registry (nil when telemetry is
	// off); merged into Config.Telemetry after the pool drains.
	reg *telemetry.Registry
}

// scratch is one worker's reusable per-block state, so the module loop
// allocates nothing once the buffers have grown.
type scratch struct {
	// faults is the buffer SampleLifetime appends each module's faults to.
	faults []fm.Fault
	// perModule[n] counts the block's modules with n faults.
	perModule []uint64
	// failMode[m] counts the block's single-fault failures of Mode m.
	failMode []int
}

func newScratch() *scratch {
	return &scratch{failMode: make([]int, len(fm.Modes))}
}

// Run executes the Monte-Carlo study for one scheme.
func Run(eval Evaluator, cfg Config) (Result, error) {
	return RunContext(context.Background(), eval, cfg)
}

// RunContext executes the Monte-Carlo study for one scheme, honoring
// cancellation: on ctx cancel it returns the partial Result over the
// modules already simulated (Result.Modules reflects the partial
// population) together with the context's error. A panic in a worker is
// recovered into a returned error instead of crashing the process.
func RunContext(ctx context.Context, eval Evaluator, cfg Config) (Result, error) {
	if cfg.Modules <= 0 {
		return Result{}, fmt.Errorf("faultsim: Modules must be positive (got %d)", cfg.Modules)
	}
	if cfg.ScrubIntervalHours < 0 || cfg.RetireIntervalHours < 0 {
		return Result{}, fmt.Errorf("faultsim: scrub/retire intervals must be non-negative")
	}
	// Also catches NaN, which fails every comparison.
	if !(cfg.Years >= 0.5 && cfg.Years <= MaxYears) {
		return Result{}, fmt.Errorf("faultsim: Years must be in [0.5, %d] (got %g)", MaxYears, cfg.Years)
	}
	if cfg.CIHalfWidth < 0 {
		return Result{}, fmt.Errorf("faultsim: CIHalfWidth must be non-negative (got %g)", cfg.CIHalfWidth)
	}
	if cfg.FITScale == 0 {
		cfg.FITScale = 1
	}
	rates := cfg.Rates
	if rates == nil {
		rates = fm.SridharanFITRates
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	years := int(cfg.Years + 0.5)
	// One sampling plan serves the whole study; the Sampler is immutable,
	// so every worker shares it.
	sampler := fm.NewSampler(eval.Geometry(), rates, cfg.FITScale, cfg.Years*fm.HoursPerYear)

	if cfg.CIHalfWidth > 0 {
		return runAdaptive(ctx, eval, sampler, cfg, workers, years)
	}

	blocks := (cfg.Modules + blockSize - 1) / blockSize
	if workers > blocks {
		workers = blocks
	}

	// One progress write per finished block: coarse enough that the
	// Monte-Carlo inner loop never sees it.
	pv := telemetry.ProgressFromContext(ctx)
	pv.Set(telemetry.Progress{Phase: "measure", Done: 0, Total: int64(blocks)})
	var blocksDone atomic.Int64

	partials := make([]partial, workers)
	errs := make([]error, workers)
	var next atomic.Int64
	next.Store(-1)
	var bail atomic.Bool

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := newScratch()
			p := &partials[w]
			p.failedByYear = make([]int, years)
			p.byMode = make(map[fm.Mode]int)
			if cfg.Telemetry != nil {
				p.reg = telemetry.NewRegistry()
			}
			for {
				if bail.Load() || ctx.Err() != nil {
					return
				}
				b := int(next.Add(1))
				if b >= blocks {
					return
				}
				if err := runBlock(eval, sampler, cfg, b, years, p, sc); err != nil {
					errs[w] = err
					bail.Store(true)
					return
				}
				pv.Set(telemetry.Progress{Phase: "measure", Done: blocksDone.Add(1), Total: int64(blocks)})
			}
		}(w)
	}
	wg.Wait()

	res := Result{
		Scheme:         eval.Name(),
		Config:         cfg,
		FailedByYear:   make([]int, years),
		FailuresByMode: make(map[fm.Mode]int),
	}
	for _, p := range partials {
		for y := range p.failedByYear {
			res.FailedByYear[y] += p.failedByYear[y]
		}
		res.SingleFaultFailures += p.single
		res.PairFailures += p.pair
		res.Modules += p.modules
		for m, c := range p.byMode {
			res.FailuresByMode[m] += c
		}
		cfg.Telemetry.Merge(p.reg)
	}
	if years > 0 {
		res.Failed = res.FailedByYear[years-1]
	}
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	return res, ctx.Err()
}

// runBlock simulates one block of modules into p, recovering any panic (a
// buggy Evaluator, a bad fault model) into a returned error so the worker
// pool cannot deadlock or crash the process. It tallies the block in sc
// and publishes to p.reg once, at the end of the block.
func runBlock(eval Evaluator, sampler *fm.Sampler, cfg Config, b, years int, p *partial, sc *scratch) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("faultsim: panic in Monte-Carlo block %d: %v", b, r)
		}
	}()
	rng := fm.NewPCG(cfg.Seed, uint64(b)+1)
	lo := b * blockSize
	hi := lo + blockSize
	if hi > cfg.Modules {
		hi = cfg.Modules
	}
	clear(sc.perModule)
	clear(sc.failMode)
	faulty, pair := 0, 0
	for m := lo; m < hi; m++ {
		faults := sampler.SampleLifetime(rng, sc.faults[:0])
		sc.faults = faults
		for len(faults) >= len(sc.perModule) {
			sc.perModule = append(sc.perModule, 0)
		}
		sc.perModule[len(faults)]++
		if len(faults) == 0 {
			continue
		}
		faulty++
		failH, single, mode := moduleFailure(eval, faults, cfg.ScrubIntervalHours, cfg.RetireIntervalHours)
		if failH < 0 {
			continue
		}
		year := int(failH / fm.HoursPerYear)
		if year >= years {
			year = years - 1
		}
		for y := year; y < years; y++ {
			p.failedByYear[y]++
		}
		if single {
			sc.failMode[mode]++
		} else {
			pair++
		}
	}

	single := 0
	for m, n := range sc.failMode {
		if n == 0 {
			continue
		}
		single += n
		mode := fm.Mode(m)
		p.byMode[mode] += n
		if p.reg != nil { // skip building the name when telemetry is off
			p.reg.Counter("faultsim.fail_mode." + mode.String()).Add(uint64(n))
		}
	}
	p.modules += hi - lo
	p.single += single
	p.pair += pair
	p.reg.Counter("faultsim.modules").Add(uint64(hi - lo))
	p.reg.Counter("faultsim.faulty_modules").Add(uint64(faulty))
	p.reg.Counter("faultsim.failures.single").Add(uint64(single))
	p.reg.Counter("faultsim.failures.pair").Add(uint64(pair))
	perModule := p.reg.Histogram("faultsim.faults_per_module", []int64{0, 1, 2, 4, 8})
	for n, c := range sc.perModule {
		perModule.ObserveN(int64(n), c)
	}
	return nil
}

// moduleFailure scans a module's time-ordered fault list and returns the
// first failure time in hours (or -1), whether it was a single-fault
// failure, and the triggering mode for single-fault failures. With
// scrubbing enabled, a transient survivable fault is only active until the
// scrub pass after its arrival; a newer fault is pair-fatal with it only if
// it lands within that window. With retirement enabled, *any* survivable
// fault is remapped away at the retire pass after its arrival (the
// correction event exposes it to the response pipeline), closing its
// pairing window — including for permanent faults, which scrubbing alone
// cannot neutralize.
func moduleFailure(eval Evaluator, faults []fm.Fault, scrubHours, retireHours float64) (failHours float64, single bool, mode fm.Mode) {
	for i, f := range faults {
		if eval.FatalAlone(f) {
			return f.Hours, true, f.Mode
		}
		for j := 0; j < i; j++ {
			prev := faults[j]
			if gone := removedAt(prev, scrubHours, retireHours); gone > 0 && f.Hours > gone {
				continue // prev was repaired or retired before f arrived
			}
			if eval.PairFatal(prev, f) {
				return f.Hours, false, f.Mode
			}
		}
	}
	return -1, false, 0
}

// removedAt returns the hour at which a survivable fault stops being
// pair-eligible (0 = never). Scrubbing repairs transient faults at the
// next scrub pass; retirement remaps any fault's region at the next
// retire pass.
func removedAt(f fm.Fault, scrubHours, retireHours float64) float64 {
	var at float64
	if scrubHours > 0 && f.Transient {
		at = nextPass(f.Hours, scrubHours)
	}
	if retireHours > 0 {
		r := nextPass(f.Hours, retireHours)
		if at == 0 || r < at {
			at = r
		}
	}
	return at
}

// nextPass returns the first interval boundary strictly after h.
func nextPass(h, interval float64) float64 {
	return (float64(int(h/interval)) + 1) * interval
}

// RunAll executes the study for several schemes with the same config.
func RunAll(evals []Evaluator, cfg Config) ([]Result, error) {
	return RunAllContext(context.Background(), evals, cfg)
}

// RunAllContext executes the study for several schemes with the same
// config, stopping at the first error or cancellation. On cancellation
// the results completed so far are returned with the context's error.
func RunAllContext(ctx context.Context, evals []Evaluator, cfg Config) ([]Result, error) {
	out := make([]Result, 0, len(evals))
	for _, e := range evals {
		r, err := RunContext(ctx, e, cfg)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%-36s P(fail,%dy)=%.6f (single=%d pair=%d of %d modules)",
		r.Scheme, len(r.FailedByYear), r.Probability(), r.SingleFaultFailures, r.PairFailures, r.Modules)
}
