package experiments

import (
	"safeguard/internal/ecc"
	"safeguard/internal/memctrl"
	"safeguard/internal/payload"
	"safeguard/internal/rowhammer"
)

// Figure1bResult is one (attack, mitigation) outcome of the breakthrough
// study, including what a protection scheme then does with the flips.
type Figure1bResult struct {
	Attack    payload.AttackResult
	Detection []rowhammer.DetectionOutcome
	// DistanceTwoFlips counts flips two rows from the hammered aggressor
	// (the Half-Double signature of Figure 1b).
	DistanceTwoFlips int
}

// Figure1b runs the paper's breakthrough case studies (Section II-E,
// Figures 1b/1c): Half-Double against PARA/Graphene/TRR and TRRespass
// against TRR, then evaluates detection of the resulting flips under
// conventional SECDED and both SafeGuard designs. The SafeGuard rows must
// show zero silent lines — the paper's security-to-reliability conversion.
func Figure1b(seed uint64) []Figure1bResult {
	cfg := rowhammer.DefaultConfig()
	cfg.Rows = 8192
	cfg.Seed = seed
	// Concentrate the damage the way a determined attacker does (victim
	// data placed in few lines, many weak cells): multi-bit lines are
	// what separate SECDED's silent miscorrections from SafeGuard's DUEs.
	cfg.LinesPerRow = 16
	cfg.VulnerableCellsPerRow = 256
	cfg.FlipsPerCrossing = 16

	type study struct {
		mit       memctrl.Plugin
		prog      *payload.Program
		reference int
	}
	const victim = 4000
	const acts = 2 * memctrl.ActsPerWindow // two refresh windows
	studies := []study{
		{memctrl.NewTRRPlugin(4), payload.ManySided(victim, 12, 6000, acts), victim - 1},
		{memctrl.NewPARAPlugin(cfg.Threshold, seed), payload.HalfDouble(victim, 0, acts), victim + 2},
		{memctrl.NewGraphenePlugin(cfg.Threshold), payload.HalfDouble(victim, 680, acts), victim + 2},
		{memctrl.NewTRRPlugin(4), payload.HalfDouble(victim, 1130, acts), victim + 2},
	}

	keyed := testKey()
	out := make([]Figure1bResult, 0, len(studies))
	for _, st := range studies {
		bank := rowhammer.NewBank(cfg)
		res, err := payload.RunAttackAround(bank, st.mit, st.prog, st.reference)
		if err != nil {
			panic(err) // the study programs are fixed and valid
		}
		r := Figure1bResult{
			Attack:           res,
			DistanceTwoFlips: res.FlipsByDistance[2],
		}
		r.Detection = append(r.Detection,
			rowhammer.EvaluateDetection(bank, ecc.NewSECDED()),
			rowhammer.EvaluateDetection(bank, ecc.NewSafeGuardSECDED(keyed)),
			rowhammer.EvaluateDetection(bank, ecc.NewSafeGuardChipkill(keyed)),
		)
		out = append(out, r)
	}
	return out
}

// Figure2Result reports the basic Row-Hammer demonstration.
type Figure2Result struct {
	Threshold        int
	ActivationsUsed  int
	FlipsInNeighbors int
}

// Figure2 demonstrates the base phenomenon on an unprotected bank:
// double-sided hammering at the threshold flips bits in the victim.
func Figure2(seed uint64) Figure2Result {
	cfg := rowhammer.DefaultConfig()
	cfg.Rows = 4096
	cfg.Seed = seed
	bank := rowhammer.NewBank(cfg)
	const victim = 2000
	acts := 0
	payload.DoubleSided(victim, 4*cfg.Threshold).Walk(func(s payload.Step) bool {
		bank.Activate(s.Row)
		acts++
		return len(bank.FlipsInRow(victim)) == 0
	})
	return Figure2Result{
		Threshold:        cfg.Threshold,
		ActivationsUsed:  acts,
		FlipsInNeighbors: len(bank.FlipsInRow(victim)),
	}
}
