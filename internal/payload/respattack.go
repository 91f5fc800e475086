// The response-enabled attack run: the end-to-end demonstration of the
// DUE response pipeline against a live Row-Hammer attack. An attacker
// hammers through the cycle-level controller while a benign consumer
// periodically reads MAC-protected victim rows; SafeGuard turns the
// flips into DUEs, the response engine escalates retry → scrub → retire
// → quarantine, and the run ends with the aggressor's rows gated at the
// controller (its ACTs denied, BlockHammer-style) while the benign
// workload keeps running at bounded slowdown.
package payload

import (
	"context"
	"fmt"
	"sort"

	"safeguard/internal/attrib"
	"safeguard/internal/dram"
	"safeguard/internal/ecc"
	"safeguard/internal/mac"
	"safeguard/internal/memctrl"
	"safeguard/internal/memsys"
	"safeguard/internal/response"
	"safeguard/internal/rowhammer"
	"safeguard/internal/telemetry"
)

// ResponseAttackConfig parameterizes a response-enabled attack run.
type ResponseAttackConfig struct {
	// Bank configures the disturbance model (rowhammer.DefaultConfig when
	// zero).
	Bank rowhammer.Config
	// Mitigation optionally attaches an in-controller defense
	// (memctrl.MitigationNames); the pipeline works with "none" too.
	Mitigation string
	// MitigationThreshold sizes the mitigation; defaults to Bank.Threshold.
	MitigationThreshold int
	// Seed drives MAC keying and mitigation randomness.
	Seed uint64
	// MaxCycles bounds each access wait (default: 4000 per program ACT
	// plus slack).
	MaxCycles int64
	// Engine configures the escalation thresholds
	// (response.DefaultEngineConfig when zero).
	Engine response.EngineConfig
	// VictimRows hold benign MAC-protected data; the benign consumer
	// cycles through their lines.
	VictimRows []int
	// BenignEvery issues one benign read per victim row every N attacker
	// accesses (default 64).
	BenignEvery int
	// BenignTail is how many benign-only read rounds run after the attack
	// stops, to measure post-quarantine behavior (default 32).
	BenignTail int
	// SpareRows is the per-bank spare region backing retirement
	// (default 8).
	SpareRows int
	// PolicyQuarantineThreshold configures the process-level
	// response.Policy correlating DUEs with co-residents (default 3).
	PolicyQuarantineThreshold int
	// Telemetry, when set, receives counters/histograms from the
	// controller, the protected memory, and the response engine.
	Telemetry *telemetry.Registry
	// Trace, when set, receives the run's cycle-stamped event stream
	// (DRAM commands, ActGate denials, decode outcomes, engine steps),
	// timestamped on the controller's clock.
	Trace *telemetry.Tracer
}

// ResponseAttackResult summarizes the escalation.
type ResponseAttackResult struct {
	Program    string
	Mitigation string
	// AttackerAccesses completed before the attack stopped (quarantine,
	// stall, or the end of the program).
	AttackerAccesses int
	Cycles           int64
	Stalled          bool

	// Quarantined reports the engine escalated to quarantine; GatedRows
	// are the attacker rows whose ACTs the controller now denies.
	Quarantined bool
	GatedRows   []int
	RetiredRows []int
	// PolicyQuarantined lists processes the OS-level policy quarantined
	// (the attacker process, via DUE/co-residency correlation).
	PolicyQuarantined []string

	// Steps is the engine's full escalation trace.
	Steps       []response.Step
	EngineStats response.EngineStats

	// Analysis is the windowed trace analysis of the run — bank pressure,
	// the aggressor-row leaderboard, and the DUE incident timeline. Only
	// populated when the config carried a Trace.
	Analysis *attrib.Analysis

	// BadReadsDuringAttack counts benign reads that consumed a standing
	// DUE or corrupted data while the attack ran; BadReadsAfterQuarantine
	// is the same count for the tail phase (zero when the pipeline closed
	// the loop).
	BadReadsDuringAttack    int
	BadReadsAfterQuarantine int

	// BenignAvgLatencyAttack / BenignAvgLatencyTail are mean MC-cycle
	// latencies of the benign timing reads in the two phases; their ratio
	// bounds the benign slowdown the response pipeline causes.
	BenignAvgLatencyAttack float64
	BenignAvgLatencyTail   float64

	MemStats memsys.Stats
	MCStats  memctrl.Stats
}

// RunResponseAttack drives an ACT-only attack program through a
// single-bank controller with the full response pipeline attached; each
// ACT is one attacker access.
func RunResponseAttack(ctx context.Context, cfg ResponseAttackConfig, p *Program) (*ResponseAttackResult, error) {
	if cfg.Bank.Rows == 0 {
		cfg.Bank = rowhammer.DefaultConfig()
	}
	if err := cfg.Bank.Validate(); err != nil {
		return nil, err
	}
	if err := checkActOnly(p, cfg.Bank.Rows); err != nil {
		return nil, err
	}
	if len(cfg.VictimRows) == 0 {
		return nil, fmt.Errorf("payload: response attack needs at least one victim row")
	}
	for _, r := range cfg.VictimRows {
		if r < 0 || r >= cfg.Bank.Rows {
			return nil, fmt.Errorf("payload: victim row %d outside bank of %d rows", r, cfg.Bank.Rows)
		}
	}
	engCfg := cfg.Engine
	if engCfg.MaxRetries == 0 && engCfg.RetireThreshold == 0 && engCfg.QuarantineThreshold == 0 {
		engCfg = response.DefaultEngineConfig()
	}
	benignEvery := cfg.BenignEvery
	if benignEvery <= 0 {
		benignEvery = 64
	}
	benignTail := cfg.BenignTail
	if benignTail <= 0 {
		benignTail = 32
	}
	spareRows := cfg.SpareRows
	if spareRows <= 0 {
		spareRows = 8
	}
	policyTh := cfg.PolicyQuarantineThreshold
	if policyTh <= 0 {
		policyTh = 3
	}
	// Cycle-level side: controller + mitigation + disturbance tracer +
	// quarantine gate + spare region.
	rig, err := newAttackRig(cfg.Bank, cfg.Mitigation, cfg.MitigationThreshold, cfg.Seed)
	if err != nil {
		return nil, err
	}
	mc, mapper := rig.mc, rig.mapper
	gate := memctrl.NewQuarantineGate()
	mc.AttachPlugin(gate)
	if err := mc.ReserveSpareRows(spareRows); err != nil {
		return nil, err
	}
	mc.AttachTelemetry(cfg.Telemetry, cfg.Trace)
	bank := rig.tracer.Bank(0, 0)

	// Functional side: MAC-protected memory over the victim rows, with
	// the engine wired into its read path and mirrored into the
	// controller's spare-row bookkeeping.
	var key [16]byte
	for i := range key {
		key[i] = byte(cfg.Seed >> (8 * (uint(i) % 8)))
	}
	key[0] ^= 0x5a
	mem := memsys.New(ecc.NewSafeGuardSECDED(mac.NewKeyed(key)))
	rowBytes := uint64(cfg.Bank.LinesPerRow) * 64
	lineAddr := func(row, line int) uint64 { return uint64(row)*rowBytes + uint64(line)*64 }
	for _, row := range cfg.VictimRows {
		for line := 0; line < cfg.Bank.LinesPerRow; line++ {
			mem.Write(lineAddr(row, line), bank.GoldenLine(row, line))
		}
	}

	res := &ResponseAttackResult{Program: p.Name, Mitigation: rig.mitigation}
	attackRows := make(map[int]bool)
	quarantineNow := func(rows []int) {
		res.Quarantined = true
		for r := range attackRows {
			gate.Quarantine(0, 0, r)
			res.GatedRows = append(res.GatedRows, r)
		}
		sort.Ints(res.GatedRows)
	}
	engCfg.OnQuarantine = quarantineNow
	eng, err := response.NewEngine(engCfg)
	if err != nil {
		return nil, err
	}
	if err := mem.AttachEngine(eng, rowBytes, spareRows); err != nil {
		return nil, err
	}
	mem.AttachTelemetry(cfg.Telemetry, cfg.Trace, mc.Now)
	eng.AttachTelemetry(cfg.Telemetry, cfg.Trace)
	mem.SetRetireHook(func(row int) bool {
		_, err := mc.RetireRow(0, 0, row)
		return err == nil
	})

	// OS-level view: the paper's Section VII-B policy correlating DUEs
	// with co-resident processes.
	policy, err := response.NewPolicy(false, policyTh, 1e12, 1<<30)
	if err != nil {
		return nil, err
	}

	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = p.Acts()*4000 + 200_000
	}
	r := &runner{mc: mc, ctx: ctx}

	// Flip propagation: new disturbance flips land in the memsys image of
	// un-retired victim rows. A retired row's data lives in the spare
	// region, physically away from the aggressors, so it stops taking
	// damage.
	flipsSeen := 0
	propagateFlips := func() {
		flips := bank.Flips()
		for ; flipsSeen < len(flips); flipsSeen++ {
			f := flips[flipsSeen]
			if mem.RowRetired(f.Row) {
				continue
			}
			addr := lineAddr(f.Row, f.Line)
			// Only victim rows are materialized in the protected memory.
			if err := mem.Corrupt(addr, memsys.FlipBits(f.Bit)); err != nil {
				continue
			}
		}
	}

	// One benign round: for each victim row, a functional read through
	// the protected datapath (driving the engine) plus a timing read
	// through the controller. Returns the round's added latency.
	benignLine := 0
	var timingErr error
	benignRound := func(tail bool) {
		propagateFlips()
		for _, row := range cfg.VictimRows {
			addr := lineAddr(row, benignLine%cfg.Bank.LinesPerRow)
			before := mem.Stats.DUEs + mem.Stats.SilentCorruptions
			if _, _, err := mem.Read(addr); err != nil {
				timingErr = err
				return
			}
			bad := mem.Stats.DUEs+mem.Stats.SilentCorruptions > before
			if bad {
				if tail {
					res.BadReadsAfterQuarantine++
				} else {
					res.BadReadsDuringAttack++
				}
				d := policy.OnDUE(response.DUEEvent{
					Time:       float64(mc.Now()),
					LineAddr:   addr,
					Consumer:   "benign",
					CoResident: []string{"benign", "attacker"},
				})
				res.PolicyQuarantined = append(res.PolicyQuarantined, d.Quarantine...)
			}
			// Timing read through the controller (benign rows are never
			// gated; retired rows pay the remap penalty). The controller
			// speaks line addresses, so re-encode the coordinate.
			start := mc.Now()
			fin := int64(-1)
			la := mapper.Encode(dram.Coord{Row: row, Col: benignLine % cfg.Bank.LinesPerRow})
			if !mc.EnqueueRead(la, func(at int64) { fin = at }) {
				continue
			}
			if r.advance(func() bool { return fin >= 0 }, maxCycles) {
				if tail {
					res.BenignAvgLatencyTail += float64(fin - start)
				} else {
					res.BenignAvgLatencyAttack += float64(fin - start)
				}
			}
		}
		benignLine++
	}

	attackBenignReads := 0
	p.Walk(func(s Step) bool {
		if res.Quarantined || ctx.Err() != nil {
			return false
		}
		attackRows[s.Row] = true
		done := false
		mc.EnqueueRead(mapper.Encode(dram.Coord{Row: s.Row}), func(int64) { done = true })
		if !r.advance(func() bool { return done }, maxCycles) {
			res.Stalled = r.ctxErr == nil
			return false
		}
		res.AttackerAccesses++
		if res.AttackerAccesses%benignEvery == 0 {
			benignRound(false)
			attackBenignReads += len(cfg.VictimRows)
		}
		return timingErr == nil
	})
	if timingErr != nil {
		return res, timingErr
	}

	// The OS-level policy quarantining the attacker process also gates
	// its rows, even if the engine's own retirement count has not crossed
	// its quarantine threshold yet.
	if !res.Quarantined && policy.Quarantined("attacker") {
		quarantineNow(nil)
	}

	// Post-quarantine phase: the attacker is gated (or out of budget);
	// the benign workload keeps running.
	tailBenignReads := 0
	for i := 0; i < benignTail && ctx.Err() == nil; i++ {
		benignRound(true)
		tailBenignReads += len(cfg.VictimRows)
		if timingErr != nil {
			return res, timingErr
		}
	}
	if attackBenignReads > 0 {
		res.BenignAvgLatencyAttack /= float64(attackBenignReads)
	}
	if tailBenignReads > 0 {
		res.BenignAvgLatencyTail /= float64(tailBenignReads)
	}

	res.Cycles = mc.Now()
	res.Steps = eng.Trace()
	res.EngineStats = eng.Stats
	res.RetiredRows = eng.RetiredRows()
	res.MemStats = mem.Stats
	res.MCStats = mc.Stats
	if tr := cfg.Trace; tr != nil {
		a := attrib.Analyze(tr.Events(), attrib.AnalyzerConfig{})
		a.Dropped = tr.Dropped()
		res.Analysis = &a
	}
	if reg := cfg.Telemetry; reg != nil {
		reg.Counter("attack.accesses").Add(uint64(res.AttackerAccesses))
		reg.Counter("attack.bad_reads.during").Add(uint64(res.BadReadsDuringAttack))
		reg.Counter("attack.bad_reads.after").Add(uint64(res.BadReadsAfterQuarantine))
		reg.Gauge("attack.benign_latency.attack").Set(res.BenignAvgLatencyAttack)
		reg.Gauge("attack.benign_latency.tail").Set(res.BenignAvgLatencyTail)
		memctrl.PublishPluginStats(reg, mc.DrainPluginStats())
	}
	return res, ctx.Err()
}

// String renders a one-line summary of the escalation outcome.
func (r *ResponseAttackResult) String() string {
	return fmt.Sprintf("%-24s vs %-11s: %d accesses, %d retries (%d hits), %d scrubs, retired %v, quarantined=%v, bad benign reads %d→%d",
		r.Program, r.Mitigation, r.AttackerAccesses, r.EngineStats.Retries, r.EngineStats.RetryHits,
		r.EngineStats.Scrubs, r.RetiredRows, r.Quarantined, r.BadReadsDuringAttack, r.BadReadsAfterQuarantine)
}
