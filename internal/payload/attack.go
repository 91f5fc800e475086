package payload

import (
	"fmt"

	"safeguard/internal/memctrl"
	"safeguard/internal/rowhammer"
)

// AttackResult summarizes one pure-model attack run.
type AttackResult struct {
	Program             string
	Mitigation          string
	Windows             int
	Activations         int
	MitigationRefreshes int
	// Throttled counts activation slots the mitigation's ActGate denied
	// (BlockHammer): time passed, but the row was not activated.
	Throttled int
	// FlipsByRow maps victim rows to flip counts.
	FlipsByRow map[int]int
	TotalFlips int
	// FlipsByDistance histograms flips by |victim - referenceRow| when a
	// reference row is supplied to RunAttackAround.
	FlipsByDistance map[int]int
}

// Broke reports whether the attack produced any bit flips despite the
// mitigation.
func (r AttackResult) Broke() bool { return r.TotalFlips > 0 }

func (r AttackResult) String() string {
	return fmt.Sprintf("%-38s vs %-9s: %6d flips in %d window(s) (%d acts, %d mitigation refreshes)",
		r.Program, r.Mitigation, r.TotalFlips, r.Windows, r.Activations, r.MitigationRefreshes)
}

// RunAttack drives the program against the bank model under the
// mitigation plugin `mit` (nil: unprotected), interleaving REF commands
// at the tREFI rate. The pure model has no clock, so the program must be
// ACT-only, and its length sets the run: a positive multiple of
// memctrl.ActsPerWindow activations, one refresh window each.
func RunAttack(b *rowhammer.Bank, mit memctrl.Plugin, p *Program) (AttackResult, error) {
	return RunAttackAround(b, mit, p, -1)
}

// bankSink is RunAttack's VRR sink: a victim-row refresh lands on the bank
// at once, as an in-DRAM refresh would, instead of queueing in a
// controller.
type bankSink struct{ b *rowhammer.Bank }

// EnqueueVRR implements memctrl.VRRSink.
func (s bankSink) EnqueueVRR(rank, bank, row int) bool { return s.b.RefreshRow(row) }

// RunAttackAround is RunAttack with a reference row for distance
// histograms (Figure 1b reports flips at distance 2).
//
// The plugin sees the bank as rank 0, bank 0. Each activation slot first
// asks the plugin's ActGate; a denied slot is counted in Throttled and
// passes without an ACT. REFs 1 to REFsPerWindow-1 follow every
// ActsPerWindow/REFsPerWindow-th slot; the window's last REF follows its
// last slot, right before the window refresh, so plugins that rotate on
// their REFsPerWindow-th REF (Graphene, BlockHammer) rotate exactly at
// the window boundary.
func RunAttackAround(b *rowhammer.Bank, mit memctrl.Plugin, p *Program, referenceRow int) (AttackResult, error) {
	if err := checkActOnly(p, b.Config().Rows); err != nil {
		return AttackResult{}, err
	}
	acts := p.Acts()
	if acts%memctrl.ActsPerWindow != 0 {
		return AttackResult{}, fmt.Errorf("payload: %s: %d ACTs is not a multiple of the %d-ACT refresh window",
			p.Name, acts, memctrl.ActsPerWindow)
	}
	name := "none"
	var gate memctrl.ActGate
	if mit != nil {
		name = mit.Name()
		if sb, ok := mit.(memctrl.SinkBinder); ok {
			sb.BindSink(bankSink{b})
		}
		gate, _ = mit.(memctrl.ActGate)
	}
	refEvery := memctrl.ActsPerWindow / memctrl.REFsPerWindow
	lastPeriodic := (memctrl.REFsPerWindow - 1) * refEvery
	throttled := 0
	var slot int64
	p.Walk(func(s Step) bool {
		if gate != nil && !gate.AllowAct(0, 0, s.Row, slot) {
			throttled++
		} else {
			b.Activate(s.Row)
			if mit != nil {
				mit.OnCommand(memctrl.CmdACT, 0, 0, s.Row, slot)
			}
		}
		i := int(slot % memctrl.ActsPerWindow)
		last := i == memctrl.ActsPerWindow-1
		if mit != nil && (last || (i < lastPeriodic && i%refEvery == refEvery-1)) {
			mit.OnCommand(memctrl.CmdREF, 0, -1, -1, slot)
		}
		if last {
			b.RefreshWindow()
		}
		slot++
		return true
	})
	res := AttackResult{
		Program:             p.Name,
		Mitigation:          name,
		Windows:             int(acts / memctrl.ActsPerWindow),
		Activations:         b.Activations,
		MitigationRefreshes: b.MitigationRefreshes,
		Throttled:           throttled,
		FlipsByRow:          make(map[int]int),
		FlipsByDistance:     make(map[int]int),
	}
	for _, f := range b.Flips() {
		res.FlipsByRow[f.Row]++
		res.TotalFlips++
		if referenceRow >= 0 {
			d := f.Row - referenceRow
			if d < 0 {
				d = -d
			}
			res.FlipsByDistance[d]++
		}
	}
	return res, nil
}

// checkActOnly validates a program for RunAttack and RunResponseAttack:
// it must be valid, contain no NOPs, and activate only rows of a bank of
// `rows` rows.
func checkActOnly(p *Program, rows int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.NopCycles() > 0 {
		return fmt.Errorf("payload: %s: NOPs are not supported by this runner", p.Name)
	}
	if r := maxRow(p.Body); r >= rows {
		return fmt.Errorf("payload: %s: ACT row %d outside bank of %d rows", p.Name, r, rows)
	}
	return nil
}

// maxRow returns the highest row any ACT of body names (-1 if none).
func maxRow(body []Instr) int {
	m := -1
	for _, in := range body {
		switch v := in.(type) {
		case Act:
			m = max(m, v.Row)
		case Loop:
			m = max(m, maxRow(v.Body))
		}
	}
	return m
}
