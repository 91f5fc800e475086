// The profiling experiment behind cmd/sgprof: run one workload under a
// set of schemes with cycle attribution on, and fold the per-run CPI
// stacks into one deterministic stack per scheme. Stacks are integer
// arrays merged commutatively, so the result is bit-identical for any
// worker count — the property sgprof's byte-stable reports rest on.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"safeguard/internal/attrib"
	"safeguard/internal/sim"
	"safeguard/internal/telemetry"
	"safeguard/internal/workload"
)

// ProfileConfig bounds a profiling run.
type ProfileConfig struct {
	// Workload is the trace generator to profile (required).
	Workload string
	// Schemes lists the protection schemes to stack up (default:
	// Baseline + SafeGuard).
	Schemes []sim.Scheme
	// Seeds are profiled independently and their stacks summed (default
	// {1}); more seeds smooth the trace generators' randomness.
	Seeds []uint64
	// InstrPerCore / WarmupInstr are per-core budgets (QuickPerf defaults
	// when 0).
	InstrPerCore int64
	WarmupInstr  int64
	// MACLatencyCPU is the MAC-check latency (Table II default: 8).
	MACLatencyCPU int64
	// ECCDecodeCPU puts an explicit ECC-decode tail on the critical path
	// (0 keeps the paper's off-path decode).
	ECCDecodeCPU int64
	// Mitigation / RHThreshold attach an in-controller mitigation.
	Mitigation  string
	RHThreshold int
	// Parallelism bounds worker goroutines (0 = GOMAXPROCS). The result
	// does not depend on it.
	Parallelism int
	// Telemetry, when set, additionally aggregates every run's counters
	// (including the published attrib.cpi.* stacks).
	Telemetry *telemetry.Registry
	// Trace, when set, receives every run's controller command events.
	Trace *telemetry.Tracer
	// WarmPool, when set, warm-starts every run from a pooled
	// post-warm-up snapshot (see PerfConfig.WarmPool); stacks are
	// bit-identical either way. Ignored when Trace is set.
	WarmPool WarmStore
}

func (c *ProfileConfig) defaults() {
	if len(c.Schemes) == 0 {
		c.Schemes = []sim.Scheme{sim.Baseline, sim.SafeGuard}
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []uint64{1}
	}
	q := QuickPerf()
	if c.InstrPerCore == 0 {
		c.InstrPerCore = q.InstrPerCore
	}
	if c.WarmupInstr == 0 {
		c.WarmupInstr = q.WarmupInstr
	}
	if c.MACLatencyCPU == 0 {
		c.MACLatencyCPU = q.MACLatencyCPU
	}
}

// ProfileResult is one workload's CPI stacks across schemes, seeds summed.
type ProfileResult struct {
	Workload string
	Schemes  []sim.Scheme
	Stacks   map[sim.Scheme]attrib.CPIStack
}

// Report folds the result into an sgprof report labelled by scheme name.
func (r ProfileResult) Report() *attrib.Report {
	rep := attrib.NewReport()
	rep.Meta["workload"] = r.Workload
	for _, sch := range r.Schemes {
		rep.AddStack(sch.String(), r.Stacks[sch])
	}
	return rep
}

// Profile runs the workload under every scheme × seed with attribution on
// and sums each scheme's stacks over seeds. Per-run stacks are integers
// and the sum is commutative, so the result is bit-identical for any
// Parallelism — the contract sgprof's determinism acceptance checks.
func Profile(ctx context.Context, cfg ProfileConfig) (ProfileResult, error) {
	cfg.defaults()
	p, err := workload.ByName(cfg.Workload)
	if err != nil {
		return ProfileResult{}, err
	}
	type job struct {
		scheme sim.Scheme
		seed   uint64
	}
	jobs := make([]job, 0, len(cfg.Schemes)*len(cfg.Seeds))
	for _, sch := range cfg.Schemes {
		for _, seed := range cfg.Seeds {
			jobs = append(jobs, job{scheme: sch, seed: seed})
		}
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	res := ProfileResult{
		Workload: cfg.Workload,
		Schemes:  cfg.Schemes,
		Stacks:   make(map[sim.Scheme]attrib.CPIStack, len(cfg.Schemes)),
	}
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		first error
	)
	jobCh := make(chan job)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				mu.Lock()
				bail := first != nil
				mu.Unlock()
				if bail || ctx.Err() != nil {
					continue
				}
				sc := sim.DefaultConfig()
				sc.Workload = p
				sc.Scheme = j.scheme
				sc.Seed = j.seed
				sc.InstrPerCore = cfg.InstrPerCore
				sc.WarmupInstr = cfg.WarmupInstr
				sc.MACLatencyCPU = cfg.MACLatencyCPU
				sc.ECCDecodeCPU = cfg.ECCDecodeCPU
				sc.Mitigation = cfg.Mitigation
				sc.RHThreshold = cfg.RHThreshold
				sc.Attrib = true
				if cfg.Telemetry != nil {
					sc.Telemetry = telemetry.NewRegistry()
				}
				sc.Trace = cfg.Trace
				var out sim.Result
				var err error
				if cfg.WarmPool != nil && cfg.Trace == nil {
					out, err = runWarmPooled(ctx, sc, cfg.WarmPool)
				} else {
					out, err = sim.NewSystem(sc).RunContext(ctx)
				}
				if err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("experiments: profile %s/%v/seed%d: %w",
							cfg.Workload, j.scheme, j.seed, err)
					}
					mu.Unlock()
					continue
				}
				mu.Lock()
				st := res.Stacks[j.scheme]
				st.Merge(*out.CPI)
				res.Stacks[j.scheme] = st
				if cfg.Telemetry != nil {
					cfg.Telemetry.Merge(sc.Telemetry)
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
	if first != nil {
		return res, first
	}
	return res, ctx.Err()
}
