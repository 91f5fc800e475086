// The payload interpreter: Run executes a program against the
// cycle-level DDR4 controller. Each ACT becomes a line read scheduled
// under FR-FCFS on a single-bank geometry, so every row switch is a
// genuine precharge+activate; the named mitigation runs as a controller
// plugin issuing real VRR commands; and a rowhammer.ActivationTracer
// folds the resulting command stream into the disturbance model. A NOP
// is an idle span in which the program issues nothing while queued
// victim refreshes drain and the REF cadence advances; the searcher uses
// it to jitter inter-ACT gaps.
//
// The controller advances on its next-event time wheel, jumping over
// provably idle stretches (memctrl's twin-drive tests and
// FuzzEngineEquivalence prove that unobservable against per-cycle
// ticking); testdata/scripted_golden.json pins the flips, counters and
// plugin decisions of the library programs against the scripted runner
// this interpreter replaced.
package payload

import (
	"context"
	"fmt"

	"safeguard/internal/dram"
	"safeguard/internal/memctrl"
	"safeguard/internal/rowhammer"
)

// RunConfig drives one program through the controller.
type RunConfig struct {
	// Bank configures the disturbance model (Rows and LinesPerRow must
	// be powers of two for the address mapper).
	Bank rowhammer.Config
	// Mitigation is a registry name from memctrl.MitigationNames().
	Mitigation string
	// MitigationThreshold sizes the mitigation; defaults to
	// Bank.Threshold.
	MitigationThreshold int
	// Seed drives the mitigation's randomness (PARA).
	Seed uint64
	// MaxActivations caps the ACT steps executed (0 = run the whole
	// program). The searcher uses it as the attacker's activation budget.
	MaxActivations int
	// MaxCycles bounds the run; BlockHammer legitimately stalls a
	// throttled program until the refresh window rotates. Defaults to
	// 4000 cycles per budgeted ACT plus slack.
	MaxCycles int64
}

// Result summarizes one program run.
type Result struct {
	Program    string
	Mitigation string
	// Activations counts program ACT steps completed (< the budget when
	// stalled).
	Activations int
	// NopCycles counts idle cycles the program spent in NOPs.
	NopCycles int64
	Cycles    int64
	// Stalled reports the run hit MaxCycles before finishing.
	Stalled bool
	// TotalFlips and FlipsByRow read the disturbance model's damage.
	TotalFlips          int
	FlipsByRow          map[int]int
	MitigationRefreshes int
	// PeakRow / PeakDisturbance report the highest disturbance any row
	// accumulated at any point of the run, in activation-equivalents —
	// the searcher's fitness gradient when no flip lands.
	PeakRow         int
	PeakDisturbance float64
	PluginStats     map[string]memctrl.PluginStats
	MCStats         memctrl.Stats
}

func (r Result) String() string {
	return fmt.Sprintf("%-38s vs %-11s: %6d flips in %9d MC cycles (%d ACTs, peak %.1f acts @ row %d)",
		r.Program, r.Mitigation, r.TotalFlips, r.Cycles, r.Activations, r.PeakDisturbance, r.PeakRow)
}

// Run executes the program under the controller; see the package
// comment for the execution model. On ctx cancellation the partial
// result accumulated so far returns with the context's error.
func Run(ctx context.Context, cfg RunConfig, p *Program) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Bank.Rows == 0 {
		cfg.Bank = rowhammer.DefaultConfig()
	}
	if err := cfg.Bank.Validate(); err != nil {
		return Result{}, err
	}
	rig, err := newAttackRig(cfg.Bank, cfg.Mitigation, cfg.MitigationThreshold, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	mc := rig.mc

	budget := p.Acts()
	if cfg.MaxActivations > 0 && int64(cfg.MaxActivations) < budget {
		budget = int64(cfg.MaxActivations)
	}
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = budget*4000 + 100_000
	}

	r := &runner{mc: mc, ctx: ctx}
	res := Result{Program: p.Name, Mitigation: rig.mitigation}
	p.Walk(func(s Step) bool {
		if s.IsAct {
			if cfg.MaxActivations > 0 && res.Activations >= cfg.MaxActivations {
				return false
			}
			if s.Row >= cfg.Bank.Rows {
				r.err = fmt.Errorf("payload: ACT row %d outside bank of %d rows", s.Row, cfg.Bank.Rows)
				return false
			}
			done := false
			mc.EnqueueRead(rig.mapper.Encode(dram.Coord{Row: s.Row}), func(int64) { done = true })
			if !r.advance(func() bool { return done }, maxCycles) {
				res.Stalled = r.ctxErr == nil
				return false
			}
			res.Activations++
			return true
		}
		end := mc.Now() + int64(s.NopCycles)
		if end > maxCycles {
			// The idle span would outlive the cycle budget: burn what is
			// left and stop, like an access that never completed.
			res.NopCycles += maxCycles - mc.Now()
			r.advance(nil, maxCycles)
			res.Stalled = r.ctxErr == nil
			return false
		}
		res.NopCycles += int64(s.NopCycles)
		return r.advance(nil, end)
	})
	if r.err != nil {
		return res, r.err
	}
	// Let queued victim refreshes land before reading out the damage
	// (running out of cycles here does not mark the program stalled).
	if r.ctxErr == nil && !res.Stalled {
		r.advance(mc.Idle, maxCycles)
	}

	res.Cycles = mc.Now()
	res.PluginStats = mc.DrainPluginStats()
	res.MCStats = mc.Stats
	res.FlipsByRow = make(map[int]int)
	bank := rig.tracer.Bank(0, 0)
	res.MitigationRefreshes = bank.MitigationRefreshes
	res.PeakRow, res.PeakDisturbance = bank.Peak()
	for _, f := range bank.Flips() {
		res.FlipsByRow[f.Row]++
		res.TotalFlips++
	}
	return res, r.ctxErr
}

// attackRig is the single-bank DDR4-3200 controller the controller-driven
// runners attack through, with the named mitigation plugin and an
// ActivationTracer attached in that order. With one bank, every row
// switch is a genuine precharge+activate.
type attackRig struct {
	mc         *memctrl.Controller
	tracer     *rowhammer.ActivationTracer
	mapper     *dram.Mapper
	mitigation string // registry name; "none" when unset
}

// newAttackRig builds the rig over a validated bank configuration; a zero
// threshold sizes the mitigation for the bank's RH-threshold.
func newAttackRig(bank rowhammer.Config, mitigation string, threshold int, seed uint64) (attackRig, error) {
	if mitigation == "" {
		mitigation = "none"
	}
	if threshold == 0 {
		threshold = bank.Threshold
	}
	geom := dram.Geometry{
		Ranks:       1,
		Banks:       1,
		RowsPerBank: bank.Rows,
		RowBytes:    bank.LinesPerRow * 64,
		LineBytes:   64,
	}
	if err := geom.Validate(); err != nil {
		return attackRig{}, err
	}
	mit, err := memctrl.NewMitigationPlugin(mitigation, threshold, seed)
	if err != nil {
		return attackRig{}, err
	}
	mc := memctrl.New(geom, dram.DDR4_3200())
	mc.AttachPlugin(mit) // nil-safe for "none"
	tracer := rowhammer.NewActivationTracer(bank)
	mc.AttachPlugin(tracer)
	return attackRig{mc: mc, tracer: tracer, mapper: dram.NewMapper(geom), mitigation: mitigation}, nil
}

// runner advances the controller clock on its time wheel.
type runner struct {
	mc     *memctrl.Controller
	ctx    context.Context
	err    error
	ctxErr error
}

// advance runs the controller until done() holds (nil done means "run to
// the limit") or Now() reaches limit. It returns false when the limit
// (with done still unmet) or a cancellation cut the advance short.
func (r *runner) advance(done func() bool, limit int64) bool {
	for r.mc.Now() < limit {
		if done != nil && done() {
			return true
		}
		// A jump can cover arbitrarily many cycles, so cancellation is
		// checked on every event.
		if r.ctx.Err() != nil {
			r.ctxErr = r.ctx.Err()
			return false
		}
		// Everything strictly before NextEventAt is a provable no-op
		// tick; jump to the cycle before the event and Tick onto it.
		if next := r.mc.NextEventAt(); next-1 > r.mc.Now() {
			r.mc.AdvanceTo(min(next-1, limit))
			if r.mc.Now() >= limit {
				break
			}
		}
		r.mc.Tick()
	}
	if done == nil {
		return r.ctxErr == nil
	}
	return done()
}
