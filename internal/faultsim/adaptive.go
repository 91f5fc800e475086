package faultsim

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	fm "safeguard/internal/faultmodel"
	"safeguard/internal/telemetry"
)

// Adaptive sampling: instead of simulating a fixed population, run
// deterministic 4096-module blocks until the Wilson 95% confidence
// interval on the end-of-life failure probability is tighter than the
// requested half-width. Block b's fault histories depend only on
// (Config.Seed, b), and the stopping point is a prefix scan over block
// tallies in index order — so the aggregated result is bit-identical
// across worker counts even when a wide worker pool overshoots the
// stopping block (the overshoot is discarded, never aggregated).

// wilsonZ is the 95% two-sided normal quantile used for the interval.
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

// eolFailed returns a tally's end-of-life failure count.
func (p *partial) eolFailed() int {
	if len(p.failedByYear) == 0 {
		return 0
	}
	return p.failedByYear[len(p.failedByYear)-1]
}

// runAdaptive is the Config.CIHalfWidth > 0 path of RunContext. Blocks
// are simulated in rounds sized to the worker pool; after each round a
// prefix scan over every finished block (in index order, from block 0)
// finds the earliest block count N whose cumulative Wilson half-width
// meets the target. Only blocks[:N] are aggregated. Config.Modules caps
// the population: if the target is never met, the full population is
// aggregated like a fixed-size run.
func runAdaptive(ctx context.Context, eval Evaluator, sampler *fm.Sampler, cfg Config, workers, years int) (Result, error) {
	maxBlocks := (cfg.Modules + blockSize - 1) / blockSize
	tallies := make([]partial, 0, workers*4)
	stopN := 0

	// Adaptive runs have no fixed extent — the stopping block is data
	// dependent — so progress reports Total == 0 ("unknown") and Done
	// counts finished blocks per round.
	pv := telemetry.ProgressFromContext(ctx)
	pv.Set(telemetry.Progress{Phase: "measure", Done: 0, Total: 0})

	for len(tallies) < maxBlocks && stopN == 0 && ctx.Err() == nil {
		batch := workers * 4
		if rem := maxBlocks - len(tallies); batch > rem {
			batch = rem
		}
		round := make([]partial, batch)
		errs := make([]error, workers)
		base := len(tallies)
		var next atomic.Int64
		next.Store(int64(base) - 1)
		var bail atomic.Bool

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sc := newScratch()
				for {
					if bail.Load() || ctx.Err() != nil {
						return
					}
					b := int(next.Add(1))
					if b >= base+batch {
						return
					}
					p := &round[b-base]
					p.failedByYear = make([]int, years)
					p.byMode = make(map[fm.Mode]int)
					if cfg.Telemetry != nil {
						p.reg = telemetry.NewRegistry()
					}
					if err := runBlock(eval, sampler, cfg, b, years, p, sc); err != nil {
						errs[w] = err
						bail.Store(true)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return Result{}, err
			}
		}
		// On cancellation mid-round, keep only the unbroken prefix of
		// finished blocks so the partial result is still a deterministic
		// function of (seed, blocks completed).
		for _, p := range round {
			if p.modules == 0 {
				break
			}
			tallies = append(tallies, p)
		}
		pv.Set(telemetry.Progress{Phase: "measure", Done: int64(len(tallies)), Total: 0})

		failed, n := 0, 0
		for i := range tallies {
			failed += tallies[i].eolFailed()
			n += tallies[i].modules
			if wilsonHalfWidth(failed, n) <= cfg.CIHalfWidth {
				stopN = i + 1
				break
			}
		}
	}
	if stopN == 0 {
		stopN = len(tallies)
	}

	res := Result{
		Scheme:         eval.Name(),
		Config:         cfg,
		FailedByYear:   make([]int, years),
		FailuresByMode: make(map[fm.Mode]int),
		Adaptive:       true,
		BlocksRun:      stopN,
	}
	failed, n := 0, 0
	for i := 0; i < stopN; i++ {
		p := &tallies[i]
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
		failed += p.eolFailed()
		n += p.modules
	}
	if years > 0 {
		res.Failed = res.FailedByYear[years-1]
	}
	res.CIHalfWidth = wilsonHalfWidth(failed, n)
	return res, ctx.Err()
}
