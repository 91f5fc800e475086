// The profiling experiment behind cmd/sgprof: run one workload under a
// set of schemes with cycle attribution on, and fold the per-run CPI
// stacks into one deterministic stack per scheme. Stacks are integer
// arrays merged commutatively, so the result is bit-identical for any
// worker count — the property sgprof's byte-stable reports rest on.
package experiments

import (
	"cmp"
	"context"

	"safeguard/internal/attrib"
	"safeguard/internal/sim"
	"safeguard/internal/telemetry"
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
	// Parallelism, Telemetry (which also receives the attrib.cpi.*
	// stacks), Trace and WarmPool configure the runs as in PerfConfig;
	// the stacks do not depend on them.
	Parallelism int
	Telemetry   *telemetry.Registry
	Trace       *telemetry.Tracer
	WarmPool    WarmStore
}

func (c *ProfileConfig) defaults() {
	if len(c.Schemes) == 0 {
		c.Schemes = []sim.Scheme{sim.Baseline, sim.SafeGuard}
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []uint64{1}
	}
	q := QuickPerf()
	c.InstrPerCore = cmp.Or(c.InstrPerCore, q.InstrPerCore)
	c.WarmupInstr = cmp.Or(c.WarmupInstr, q.WarmupInstr)
	c.MACLatencyCPU = cmp.Or(c.MACLatencyCPU, q.MACLatencyCPU)
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
	cells := make([]Cell, 0, len(cfg.Schemes)*len(cfg.Seeds))
	for _, sch := range cfg.Schemes {
		for _, seed := range cfg.Seeds {
			cells = append(cells, Cell{Workload: cfg.Workload, Scheme: sch, Seed: seed,
				InstrPerCore: cfg.InstrPerCore, WarmupInstr: cfg.WarmupInstr, MACLatencyCPU: cfg.MACLatencyCPU,
				ECCDecodeCPU: cfg.ECCDecodeCPU, Mitigation: cfg.Mitigation, RHThreshold: cfg.RHThreshold, Attrib: true,
			})
		}
	}
	res := ProfileResult{
		Workload: cfg.Workload,
		Schemes:  cfg.Schemes,
		Stacks:   make(map[sim.Scheme]attrib.CPIStack, len(cfg.Schemes)),
	}
	pool := PerfConfig{Parallelism: cfg.Parallelism, Telemetry: cfg.Telemetry, Trace: cfg.Trace, WarmPool: cfg.WarmPool}
	err := RunCells(ctx, pool, cells, func(i int, out sim.Result, reg *telemetry.Registry) {
		st := res.Stacks[cells[i].Scheme]
		st.Merge(*out.CPI)
		res.Stacks[cells[i].Scheme] = st
		cfg.Telemetry.Merge(reg)
	})
	return res, err
}
