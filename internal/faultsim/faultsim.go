package faultsim

import (
	"context"
	"errors"
	"fmt"
	"math"

	fm "safeguard/internal/faultmodel"
	"safeguard/internal/pool"
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
	// faults-per-module histogram, published once from the summed block
	// tallies, so the published numbers are bit-identical across worker
	// counts.
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

// tally is one block's outcome, or the sum of several. Every field is a
// plain integer count and summing is order-independent, so a study's
// total does not depend on which worker ran which block.
type tally struct {
	// failedByYear[y] counts modules failed within year y+1 (cumulative).
	failedByYear []int
	// failMode[m] counts single-fault failures of Mode m.
	failMode []int
	// perModule[n] counts modules with n faults.
	perModule             []uint64
	modules, faulty, pair int
}

func newTally(years int) *tally {
	return &tally{failedByYear: make([]int, years), failMode: make([]int, len(fm.Modes))}
}

func (t *tally) add(o *tally) {
	for y, n := range o.failedByYear {
		t.failedByYear[y] += n
	}
	for m, n := range o.failMode {
		t.failMode[m] += n
	}
	for len(t.perModule) < len(o.perModule) {
		t.perModule = append(t.perModule, 0)
	}
	for n, c := range o.perModule {
		t.perModule[n] += c
	}
	t.modules += o.modules
	t.faulty += o.faulty
	t.pair += o.pair
}

// eolFailed returns the end-of-life failure count.
func (t *tally) eolFailed() int { return t.failedByYear[len(t.failedByYear)-1] }

// publish adds the tally to reg: the study's aggregate counters and the
// faults-per-module histogram.
func (t *tally) publish(reg *telemetry.Registry) {
	single := 0
	for m, n := range t.failMode {
		if n > 0 {
			single += n
			reg.Counter("faultsim.fail_mode." + fm.Mode(m).String()).Add(uint64(n))
		}
	}
	reg.Counter("faultsim.modules").Add(uint64(t.modules))
	reg.Counter("faultsim.faulty_modules").Add(uint64(t.faulty))
	reg.Counter("faultsim.failures.single").Add(uint64(single))
	reg.Counter("faultsim.failures.pair").Add(uint64(t.pair))
	perModule := reg.Histogram("faultsim.faults_per_module", []int64{0, 1, 2, 4, 8})
	for n, c := range t.perModule {
		perModule.ObserveN(int64(n), c)
	}
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
//
// Blocks run on the shared pool and are folded on the calling goroutine.
// A fixed-population study sums every block that finishes. An adaptive
// study (Config.CIHalfWidth > 0) sums blocks in index order and stops at
// the first prefix whose Wilson half-width meets the target; blocks a
// wide pool finished past that point are discarded, so the stopping
// point and the sums depend on the seed alone. Config.Modules caps the
// adaptive population: if the target is never met, every block is summed
// like a fixed-size run.
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
	years := int(cfg.Years + 0.5)
	// One sampling plan serves the whole study; the Sampler is immutable,
	// so every worker shares it.
	sampler := fm.NewSampler(eval.Geometry(), rates, cfg.FITScale, cfg.Years*fm.HoursPerYear)
	blocks := (cfg.Modules + blockSize - 1) / blockSize
	adaptive := cfg.CIHalfWidth > 0

	// One progress write per summed block: coarse enough that the
	// Monte-Carlo inner loop never sees it. An adaptive study has no
	// fixed extent, so it reports Total == 0 ("unknown").
	total := int64(blocks)
	if adaptive {
		total = 0
	}
	pv := telemetry.ProgressFromContext(ctx)
	pv.Set(telemetry.Progress{Phase: "measure", Done: 0, Total: total})
	sum := newTally(years)
	summed := 0
	fold := func(t *tally) {
		sum.add(t)
		summed++
		pv.Set(telemetry.Progress{Phase: "measure", Done: int64(summed), Total: total})
	}
	// waiting[b] holds adaptive block b until every block before it is
	// summed; met marks the stopping prefix found.
	var waiting []*tally
	if adaptive {
		waiting = make([]*tally, blocks)
	}
	met := false
	err := pool.Run(ctx, blocks, cfg.Workers, func(b int) (*tally, error) {
		return runBlock(eval, sampler, cfg, b, years)
	}, func(b int, t *tally) bool {
		if !adaptive {
			fold(t)
			return false
		}
		if met {
			return true
		}
		waiting[b] = t
		for summed < blocks && waiting[summed] != nil {
			fold(waiting[summed])
			if wilsonHalfWidth(sum.eolFailed(), sum.modules) <= cfg.CIHalfWidth {
				met = true
				return true
			}
		}
		return false
	})
	if err != nil && !errors.Is(err, ctx.Err()) {
		return Result{}, err
	}
	if summed > 0 {
		sum.publish(cfg.Telemetry)
	}

	res := Result{
		Scheme:         eval.Name(),
		Config:         cfg,
		Modules:        sum.modules,
		FailedByYear:   sum.failedByYear,
		Failed:         sum.eolFailed(),
		PairFailures:   sum.pair,
		FailuresByMode: make(map[fm.Mode]int),
	}
	for m, n := range sum.failMode {
		if n > 0 {
			res.SingleFaultFailures += n
			res.FailuresByMode[fm.Mode(m)] = n
		}
	}
	if adaptive {
		res.Adaptive = true
		res.BlocksRun = summed
		res.CIHalfWidth = wilsonHalfWidth(res.Failed, res.Modules)
	}
	return res, err
}

// wilsonZ is the 95% two-sided normal quantile used for the adaptive
// stopping interval.
const wilsonZ = 1.96

// wilsonHalfWidth returns the half-width of the Wilson score interval
// for `failed` successes in `n` trials. Unlike the normal approximation
// it stays honest at p=0 (zero observed failures still yield a positive
// width ~z²/2n), so adaptive runs cannot stop on an empty sample out of
// false confidence.
func wilsonHalfWidth(failed, n int) float64 {
	if n <= 0 {
		return 1
	}
	p := float64(failed) / float64(n)
	nn := float64(n)
	z2 := wilsonZ * wilsonZ
	return wilsonZ * math.Sqrt(p*(1-p)/nn+z2/(4*nn*nn)) / (1 + z2/nn)
}

// runBlock simulates block b of the population into a fresh tally,
// recovering any panic (a buggy Evaluator, a bad fault model) into a
// returned error so the pool cannot deadlock or crash the process.
func runBlock(eval Evaluator, sampler *fm.Sampler, cfg Config, b, years int) (t *tally, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("faultsim: panic in Monte-Carlo block %d: %v", b, r)
		}
	}()
	rng := fm.NewPCG(cfg.Seed, uint64(b)+1)
	lo := b * blockSize
	hi := min(lo+blockSize, cfg.Modules)
	t = newTally(years)
	t.modules = hi - lo
	var faults []fm.Fault
	for m := lo; m < hi; m++ {
		faults = sampler.SampleLifetime(rng, faults[:0])
		for len(faults) >= len(t.perModule) {
			t.perModule = append(t.perModule, 0)
		}
		t.perModule[len(faults)]++
		if len(faults) == 0 {
			continue
		}
		t.faulty++
		failH, single, mode := moduleFailure(eval, faults, cfg.ScrubIntervalHours, cfg.RetireIntervalHours)
		if failH < 0 {
			continue
		}
		year := min(int(failH/fm.HoursPerYear), years-1)
		for y := year; y < years; y++ {
			t.failedByYear[y]++
		}
		if single {
			t.failMode[mode]++
		} else {
			t.pair++
		}
	}
	return t, nil
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
