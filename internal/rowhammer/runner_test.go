package rowhammer_test

import (
	"testing"

	"safeguard/internal/memctrl"
	"safeguard/internal/payload"
	"safeguard/internal/rowhammer"
)

// shifted returns the program with every ACT row moved by k.
func shifted(p *payload.Program, k int) *payload.Program {
	var shift func([]payload.Instr) []payload.Instr
	shift = func(body []payload.Instr) []payload.Instr {
		out := make([]payload.Instr, len(body))
		for i, in := range body {
			switch v := in.(type) {
			case payload.Act:
				out[i] = payload.Act{Row: v.Row + k}
			case payload.Loop:
				out[i] = payload.Loop{Count: v.Count, Body: shift(v.Body)}
			default:
				out[i] = in
			}
		}
		return out
	}
	return &payload.Program{Name: p.Name, Body: shift(p.Body)}
}

// vrrRecorder wraps a refreshing plugin and records the victim row of
// every VRR it issues before passing it on to the runner's sink.
type vrrRecorder struct {
	memctrl.Plugin
	sink memctrl.VRRSink
	rows []int
}

func (r *vrrRecorder) BindSink(s memctrl.VRRSink) {
	r.sink = s
	r.Plugin.(memctrl.SinkBinder).BindSink(r)
}

func (r *vrrRecorder) EnqueueVRR(rank, bank, row int) bool {
	r.rows = append(r.rows, row)
	return r.sink.EnqueueVRR(rank, bank, row)
}

// TestRunAttackShiftInvariance is a metamorphic check of the runner and
// the refreshing mitigations: moving every ACT row of a program by k
// (away from the bank edges) moves every victim refresh by exactly k and
// leaves the activation count, the refresh count and the peak
// disturbance unchanged. Flips are not compared: each row's vulnerable
// cells are seeded by its row id. BlockHammer is excluded for the same
// reason in the mitigation: its counting Bloom filter hashes the row id,
// so which rows collide, and hence which ACTs it denies, changes with the
// shift.
func TestRunAttackShiftInvariance(t *testing.T) {
	t.Parallel()
	const k = 1009
	cfg := testConfig()
	cases := []struct {
		name string
		mit  func() memctrl.Plugin
		prog *payload.Program
	}{
		{"none", func() memctrl.Plugin { return nil }, payload.DoubleSided(1000, windows(1))},
		{"para", func() memctrl.Plugin { return memctrl.NewPARAPlugin(cfg.Threshold, 2) },
			payload.HalfDouble(1500, 0, windows(1))},
		{"trr", func() memctrl.Plugin { return memctrl.NewTRRPlugin(4) },
			payload.ManySided(1200, 12, 2000, windows(1))},
		{"graphene", func() memctrl.Plugin { return memctrl.NewGraphenePlugin(cfg.Threshold) },
			payload.HalfDouble(1500, 680, windows(1))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			run := func(shift int) (payload.AttackResult, []int, int, float64) {
				b := rowhammer.NewBank(cfg)
				var mit memctrl.Plugin
				rec := &vrrRecorder{}
				if p := tc.mit(); p != nil {
					rec.Plugin = p
					mit = rec
				}
				res := runAttack(t, b, mit, shifted(tc.prog, shift), -1)
				row, acts := b.Peak()
				return res, rec.rows, row, acts
			}
			base, baseRows, baseRow, basePeak := run(0)
			moved, movedRows, movedRow, movedPeak := run(k)
			if tc.mit() != nil && len(baseRows) == 0 {
				t.Fatal("the mitigation issued no refreshes; the check is vacuous")
			}
			if len(movedRows) != len(baseRows) {
				t.Fatalf("%d refreshes after the shift, %d before", len(movedRows), len(baseRows))
			}
			for i, r := range baseRows {
				if movedRows[i] != r+k {
					t.Fatalf("refresh %d: row %d after the shift, want %d+%d", i, movedRows[i], r, k)
				}
			}
			if moved.Activations != base.Activations || moved.MitigationRefreshes != base.MitigationRefreshes {
				t.Fatalf("acts/refreshes %d/%d after the shift, %d/%d before",
					moved.Activations, moved.MitigationRefreshes, base.Activations, base.MitigationRefreshes)
			}
			if movedPeak != basePeak || movedRow != baseRow+k {
				t.Fatalf("peak %.3f at row %d after the shift, %.3f at row %d before",
					movedPeak, movedRow, basePeak, baseRow)
			}
		})
	}
}
