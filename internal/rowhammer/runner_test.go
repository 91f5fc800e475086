package rowhammer

import (
	"testing"

	"safeguard/internal/memctrl"
)

// shifted moves every row of a pattern by k.
type shifted struct {
	Pattern
	k int
}

func (p *shifted) Next() int { return p.Pattern.Next() + p.k }

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
// the refreshing mitigations: moving every pattern row by k (away from the
// bank edges) moves every victim refresh by exactly k and leaves the
// activation count, the refresh count and the peak disturbance unchanged.
// Flips are not compared: each row's vulnerable cells are seeded by its
// row id. BlockHammer is excluded for the same reason in the mitigation:
// its counting Bloom filter hashes the row id, so which rows collide, and
// hence which ACTs it denies, changes with the shift.
func TestRunAttackShiftInvariance(t *testing.T) {
	t.Parallel()
	const k = 1009
	cfg := testConfig()
	cases := []struct {
		name    string
		mit     func() memctrl.Plugin
		pattern func() Pattern
	}{
		{"none", func() memctrl.Plugin { return nil },
			func() Pattern { return &DoubleSided{Victim: 1000} }},
		{"para", func() memctrl.Plugin { return memctrl.NewPARAPlugin(cfg.Threshold, 2) },
			func() Pattern { return &HalfDouble{Victim: 1500} }},
		{"trr", func() memctrl.Plugin { return memctrl.NewTRRPlugin(4) },
			func() Pattern { return &ManySided{Victim: 1200, Dummies: 12, DummyBase: 2000} }},
		{"graphene", func() memctrl.Plugin { return memctrl.NewGraphenePlugin(cfg.Threshold) },
			func() Pattern { return &HalfDouble{Victim: 1500, NearEvery: 680} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			run := func(shift int) (AttackResult, []int, int, float64) {
				b := NewBank(cfg)
				var mit memctrl.Plugin
				rec := &vrrRecorder{}
				if p := tc.mit(); p != nil {
					rec.Plugin = p
					mit = rec
				}
				res := RunAttack(b, mit, &shifted{tc.pattern(), shift}, 1)
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
