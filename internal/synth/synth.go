// Package synth is the attack-synthesis engine: a deterministic,
// seeded, ALARM-style searcher that evolves hammering payloads (the
// internal/payload DSL) against each mitigation in the registry and
// reports, per (mitigation, RH-threshold) cell, the cheapest payload
// that still defeats it.
//
// The search is a small evolutionary loop over payload *genomes* — an
// aggressor row set, an inter-ACT idle gap, and a rotating decoy burst —
// rendered to LOOP programs and executed through the real controller
// (payload.Run: FR-FCFS scheduling, mitigation plugins issuing real VRR
// commands, the disturbance model folding the command stream). Fitness
// is flips first, then peak per-row disturbance per activation spent, so
// the searcher has a gradient even when nothing flips yet. Once a cell
// is defeated the searcher binary-searches the smallest activation
// budget at which the winning payload still flips — the "cheapest
// defeat" the matrix reports and the nightly baseline gate pins.
//
// Determinism rules (the synthesis smoke test asserts these end to end):
//
//   - every random draw comes from a per-cell PCG seeded by (Seed, cell
//     index) — never from wall clock or map order;
//   - cells are independent, written to indexed result slots, so the
//     matrix is identical for any worker count;
//   - fitness ties break on the canonical payload encoding, so "equally
//     good" genomes never reorder between runs.
package synth

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"

	"safeguard/internal/memctrl"
	"safeguard/internal/payload"
	"safeguard/internal/pool"
	"safeguard/internal/rowhammer"
	"safeguard/internal/telemetry"
)

// Search-space bounds. The genome clamps into these, so mutation can
// never render an invalid program.
const (
	maxAggressors = 6
	maxDecoys     = 8
	maxStride     = 8
	maxGap        = 512
)

// eventEngine is the only legal Config.Engine value: payload.Run always
// advances the controller on its time wheel.
const eventEngine = "event"

// Config parameterizes one synthesis run.
type Config struct {
	// Bank is the disturbance-model geometry; Thresholds overrides its
	// RH-Threshold per cell.
	Bank rowhammer.Config `json:"bank"`
	// Mitigations are registry names (memctrl.MitigationNames()); empty
	// means the whole registry.
	Mitigations []string `json:"mitigations"`
	// Thresholds are the RH-Threshold values to sweep; empty means the
	// bank's own threshold.
	Thresholds []int `json:"thresholds"`
	// Seed drives every random draw (search mutations and the PARA
	// mitigation alike).
	Seed uint64 `json:"seed"`
	// Budget is the attacker's activation budget per evaluation.
	Budget int `json:"budget"`
	// Generations and Population size the evolutionary loop.
	Generations int `json:"generations"`
	Population  int `json:"population"`
	// MaxCycles bounds each evaluation (0 = payload.Run's default).
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// Engine names the controller loop. Its one legal value is "event"
	// (the "" default): the field stays because it is part of the
	// artifact and of hashed synth requests.
	Engine string `json:"engine,omitempty"`
	// Parallelism bounds concurrent cell searches (0 = all cells at
	// once). Results are identical for any value.
	Parallelism int `json:"parallelism,omitempty"`
}

// Normalize fills defaults in place and returns the receiver.
func (c *Config) Normalize() *Config {
	if c.Bank.Rows == 0 {
		c.Bank = rowhammer.DefaultConfig()
	}
	if len(c.Mitigations) == 0 {
		c.Mitigations = memctrl.MitigationNames()
	}
	if len(c.Thresholds) == 0 {
		c.Thresholds = []int{c.Bank.Threshold}
	}
	if c.Budget == 0 {
		c.Budget = 3000
	}
	if c.Generations == 0 {
		c.Generations = 6
	}
	if c.Population == 0 {
		c.Population = 12
	}
	if c.Engine == "" {
		c.Engine = eventEngine
	}
	return c
}

// Validate rejects configs the searcher cannot run. Call after
// Normalize.
func (c *Config) Validate() error {
	if err := c.Bank.Validate(); err != nil {
		return err
	}
	if c.Bank.Rows < 16 {
		return fmt.Errorf("synth: bank of %d rows leaves no room for aggressor placement (need >= 16)", c.Bank.Rows)
	}
	for _, m := range c.Mitigations {
		if _, err := memctrl.NewMitigationPlugin(m, 1, 0); err != nil {
			return fmt.Errorf("synth: %w", err)
		}
	}
	for _, th := range c.Thresholds {
		if th <= 0 {
			return fmt.Errorf("synth: RH-threshold must be positive, got %d", th)
		}
	}
	if c.Budget < 1 || int64(c.Budget) > int64(payload.MaxLoop) {
		return fmt.Errorf("synth: budget %d outside [1, %d]", c.Budget, payload.MaxLoop)
	}
	if c.Generations < 1 || c.Population < 2 {
		return fmt.Errorf("synth: need generations >= 1 and population >= 2, got %d/%d",
			c.Generations, c.Population)
	}
	if c.Engine != eventEngine {
		return fmt.Errorf("synth: unknown engine %q (valid: %s)", c.Engine, eventEngine)
	}
	return nil
}

// genome is the searcher's compact payload description: hammer each
// aggressor in turn (with an optional idle gap after every ACT), then
// burn a decoy burst to pollute sampler-based trackers, and repeat.
type genome struct {
	aggr        []int // sorted unique aggressor rows
	gap         int   // NOP cycles after each ACT (0 = back to back)
	decoys      int   // decoy rows per iteration
	decoyBase   int
	decoyStride int
}

// clamp forces the genome into the search-space bounds for a bank of
// `rows` rows, preserving determinism: same input genome, same output.
func (g genome) clamp(rows int) genome {
	lo, hi := 2, rows-3
	seen := make(map[int]bool, len(g.aggr))
	aggr := g.aggr[:0:0]
	for _, a := range g.aggr {
		a = clampInt(a, lo, hi)
		if !seen[a] {
			seen[a] = true
			aggr = append(aggr, a)
		}
	}
	sort.Ints(aggr)
	if len(aggr) == 0 {
		aggr = []int{rows / 2}
	}
	if len(aggr) > maxAggressors {
		aggr = aggr[:maxAggressors]
	}
	g.aggr = aggr
	g.gap = clampInt(g.gap, 0, maxGap)
	g.decoyStride = clampInt(g.decoyStride, 1, maxStride)
	// The whole decoy window [base, base+(decoys-1)*stride] must fit in
	// [lo, hi]: shrink the burst first, then slide the base.
	g.decoys = clampInt(g.decoys, 0, minInt(maxDecoys, (hi-lo)/g.decoyStride+1))
	g.decoyBase = clampInt(g.decoyBase, lo, hi-(g.decoys-1)*g.decoyStride)
	return g
}

// render unrolls the genome into a DSL program holding at least `budget`
// activations (payload.Run's MaxActivations trims the excess).
func (g genome) render(budget int) *payload.Program {
	var body []payload.Instr
	emit := func(row int) {
		body = append(body, payload.Act{Row: row})
		if g.gap > 0 {
			body = append(body, payload.Nop{Cycles: g.gap})
		}
	}
	for _, a := range g.aggr {
		emit(a)
	}
	for d := 0; d < g.decoys; d++ {
		emit(g.decoyBase + d*g.decoyStride)
	}
	perIter := len(g.aggr) + g.decoys
	iters := (budget + perIter - 1) / perIter
	if iters > payload.MaxLoop {
		iters = payload.MaxLoop
	}
	prog := &payload.Program{Name: g.name()}
	if iters > 1 {
		prog.Body = []payload.Instr{payload.Loop{Count: iters, Body: body}}
	} else {
		prog.Body = body
	}
	return prog
}

// name is the genome's canonical, space-free program name.
func (g genome) name() string {
	s := "synth[" + joinInts(g.aggr) + "]g" + fmt.Sprint(g.gap)
	if g.decoys > 0 {
		s += fmt.Sprintf("d%d@%d+%d", g.decoys, g.decoyBase, g.decoyStride)
	}
	return s
}

func joinInts(xs []int) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += "."
		}
		s += fmt.Sprint(x)
	}
	return s
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func clampInt(v, lo, hi int) int {
	if hi < lo {
		hi = lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// eval is one fitness measurement: the rendered program's canonical
// encoding plus the controller run's outcome.
type eval struct {
	g        genome
	encoding string
	res      payload.Result
}

// better is the total fitness order: flips first, then peak per-row
// disturbance per activation spent (the gradient before anything
// flips), then the canonical encoding so ties are deterministic.
func better(a, b *eval) bool {
	if a.res.TotalFlips != b.res.TotalFlips {
		return a.res.TotalFlips > b.res.TotalFlips
	}
	ae, be := a.efficiency(), b.efficiency()
	if ae != be {
		return ae > be
	}
	return a.encoding < b.encoding
}

// efficiency is peak disturbance per activation spent.
func (e *eval) efficiency() float64 {
	acts := e.res.Activations
	if acts < 1 {
		acts = 1
	}
	return e.res.PeakDisturbance / float64(acts)
}

// Search runs the synthesis sweep and returns the mitigation-vs-attack
// matrix. Cells run concurrently (bounded by cfg.Parallelism) into
// indexed slots; the matrix is identical for any parallelism.
func Search(ctx context.Context, cfg Config) (*Matrix, error) {
	cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	type cellKey struct {
		mit string
		th  int
	}
	var keys []cellKey
	for _, m := range cfg.Mitigations {
		for _, th := range cfg.Thresholds {
			keys = append(keys, cellKey{m, th})
		}
	}
	pv := telemetry.ProgressFromContext(ctx)
	pv.Set(telemetry.Progress{Phase: "synth", Done: 0, Total: int64(len(keys))})

	// Config.Parallelism's 0 means every cell at once, not GOMAXPROCS.
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = len(keys)
	}
	cells := make([]Cell, len(keys))
	finished := 0
	err := pool.Run(ctx, len(keys), workers, func(i int) (Cell, error) {
		return searchCell(ctx, cfg, keys[i].mit, keys[i].th, uint64(i))
	}, func(i int, c Cell) bool {
		cells[i] = c
		finished++
		pv.Set(telemetry.Progress{Phase: "synth", Done: int64(finished), Total: int64(len(keys))})
		return false
	})
	if err != nil {
		return nil, err
	}
	return &Matrix{
		Schema:      MatrixSchema,
		Bank:        cfg.Bank,
		Budget:      cfg.Budget,
		Generations: cfg.Generations,
		Population:  cfg.Population,
		Seed:        cfg.Seed,
		Engine:      cfg.Engine,
		Cells:       cells,
	}, nil
}

// searchCell evolves payloads against one (mitigation, threshold) cell.
func searchCell(ctx context.Context, cfg Config, mit string, th int, cellIdx uint64) (Cell, error) {
	// Every draw in this cell comes from this PCG: same seed and cell
	// index, same search trajectory, regardless of scheduling.
	rng := rand.New(rand.NewPCG(cfg.Seed^0x5afe5eed, cellIdx))
	bank := cfg.Bank
	bank.Threshold = th
	run := func(p *payload.Program, budget int) (payload.Result, error) {
		return payload.Run(ctx, payload.RunConfig{
			Bank:           bank,
			Mitigation:     mit,
			Seed:           cfg.Seed,
			MaxActivations: budget,
			MaxCycles:      cfg.MaxCycles,
		}, p)
	}

	// Evaluation cache: elites persist across generations and mutations
	// revisit genomes; identical encodings are identical runs.
	cache := make(map[string]*eval)
	evals := 0
	evaluate := func(g genome) (*eval, error) {
		p := g.render(cfg.Budget)
		enc := p.Encode()
		if e, ok := cache[enc]; ok {
			return e, nil
		}
		res, err := run(p, cfg.Budget)
		if err != nil {
			return nil, err
		}
		evals++
		e := &eval{g: g, encoding: enc, res: res}
		cache[enc] = e
		return e, nil
	}

	pop := seedPopulation(cfg, rng)
	best := (*eval)(nil)
	for gen := 0; gen < cfg.Generations; gen++ {
		ranked := make([]*eval, 0, len(pop))
		for _, g := range pop {
			e, err := evaluate(g)
			if err != nil {
				return Cell{}, fmt.Errorf("synth: cell %s/th=%d: %w", mit, th, err)
			}
			ranked = append(ranked, e)
		}
		sort.SliceStable(ranked, func(i, j int) bool { return better(ranked[i], ranked[j]) })
		if best == nil || better(ranked[0], best) {
			best = ranked[0]
		}
		// Elite quarter survives; the rest are mutants of the elites.
		elites := len(pop) / 4
		if elites < 1 {
			elites = 1
		}
		next := make([]genome, 0, len(pop))
		for i := 0; i < elites && i < len(ranked); i++ {
			next = append(next, ranked[i].g)
		}
		for len(next) < len(pop) {
			parent := ranked[rng.IntN(elites)].g
			next = append(next, mutate(parent, rng, cfg.Bank.Rows))
		}
		pop = next
	}

	cell := Cell{
		Mitigation:      mit,
		Threshold:       th,
		Payload:         best.encoding,
		Flips:           best.res.TotalFlips,
		Activations:     best.res.Activations,
		PeakDisturbance: best.res.PeakDisturbance,
		Stalled:         best.res.Stalled,
		Evals:           evals,
	}
	if best.res.TotalFlips > 0 {
		cell.Defeated = true
		// Cheapest defeat: the smallest activation budget at which the
		// winning payload still flips. Monotone in the budget (more
		// activations never un-flip bits), so binary search applies.
		prog := best.g.render(cfg.Budget)
		lo, hi := 1, best.res.Activations
		for lo < hi {
			mid := lo + (hi-lo)/2
			res, err := run(prog, mid)
			if err != nil {
				return Cell{}, fmt.Errorf("synth: cell %s/th=%d: %w", mit, th, err)
			}
			evals++
			if res.TotalFlips > 0 {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		cell.MinBudget = lo
		cell.Evals = evals
	}
	return cell, nil
}

// seedPopulation builds the initial genomes: the classic attack shapes
// around the bank's middle row, then random fill. All draws come from
// the cell's rng.
func seedPopulation(cfg Config, rng *rand.Rand) []genome {
	rows := cfg.Bank.Rows
	v := rows / 2
	seeds := []genome{
		{aggr: []int{v - 1, v + 1}}, // double-sided
		{aggr: []int{v + 1}},        // single-sided
		{aggr: []int{v - 1, v + 1}, decoys: 6, decoyBase: v + 300, decoyStride: 2}, // many-sided
		{aggr: []int{v - 2, v + 2}, gap: 32},                                       // half-double-ish
	}
	pop := make([]genome, 0, cfg.Population)
	for _, g := range seeds {
		if len(pop) == cfg.Population {
			break
		}
		pop = append(pop, g.clamp(rows))
	}
	for len(pop) < cfg.Population {
		g := genome{
			aggr:        []int{2 + rng.IntN(rows-5), 2 + rng.IntN(rows-5)},
			gap:         rng.IntN(64),
			decoys:      rng.IntN(maxDecoys + 1),
			decoyBase:   2 + rng.IntN(rows-5),
			decoyStride: 1 + rng.IntN(maxStride),
		}
		pop = append(pop, g.clamp(rows))
	}
	return pop
}

// mutate applies one of the searcher's operators — split/merge/nudge an
// aggressor, jitter the inter-ACT gap, rotate/grow/shrink the decoy
// burst — and clamps the result back into the search space.
func mutate(g genome, rng *rand.Rand, rows int) genome {
	out := genome{
		aggr:        append([]int(nil), g.aggr...),
		gap:         g.gap,
		decoys:      g.decoys,
		decoyBase:   g.decoyBase,
		decoyStride: g.decoyStride,
	}
	switch rng.IntN(7) {
	case 0: // split: one aggressor becomes the pair sandwiching it
		i := rng.IntN(len(out.aggr))
		a := out.aggr[i]
		out.aggr = append(out.aggr[:i], append([]int{a - 1, a + 1}, out.aggr[i+1:]...)...)
	case 1: // merge: drop an aggressor
		if len(out.aggr) > 1 {
			i := rng.IntN(len(out.aggr))
			out.aggr = append(out.aggr[:i], out.aggr[i+1:]...)
		}
	case 2: // nudge: move one aggressor a few rows
		i := rng.IntN(len(out.aggr))
		out.aggr[i] += rng.IntN(9) - 4
	case 3: // jitter the inter-ACT gap
		out.gap += rng.IntN(65) - 32
	case 4: // grow/shrink the decoy burst
		out.decoys += rng.IntN(3) - 1
	case 5: // rotate the decoy window
		out.decoyBase += (rng.IntN(2)*2 - 1) * (1 + rng.IntN(16))
	case 6: // restride the decoys
		out.decoyStride += rng.IntN(3) - 1
	}
	return out.clamp(rows)
}
