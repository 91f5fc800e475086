package rowhammer_test

import (
	"testing"

	"safeguard/internal/memctrl"
	"safeguard/internal/payload"
	"safeguard/internal/rowhammer"
)

func TestBlockHammerStopsEveryAttackPattern(t *testing.T) {
	t.Parallel()
	// Correctly sized BlockHammer caps every row under the RH-Threshold,
	// so even the breakthrough patterns cannot flip bits.
	cfg := testConfig()
	programs := []*payload.Program{
		payload.DoubleSided(1000, windows(1)),
		payload.ManySided(1200, 12, 2000, windows(1)),
		payload.HalfDouble(1500, 1130, windows(1)),
	}
	for _, p := range programs {
		b := rowhammer.NewBank(cfg)
		bh := memctrl.NewBlockHammerPlugin(cfg.Threshold)
		res := runAttack(t, b, bh, p, -1)
		if res.TotalFlips != 0 {
			t.Fatalf("%s: BlockHammer let %d flips through", p.Name, res.TotalFlips)
		}
		if res.Throttled == 0 {
			t.Fatalf("%s: attack was never throttled", p.Name)
		}
	}
}

func TestBlockHammerThresholdDependence(t *testing.T) {
	t.Parallel()
	// The paper's critique: a mitigation sized for one RH-Threshold fails
	// on a module with a lower one. BlockHammer designed for 10K faces an
	// LPDDR4-new module at 4.8K: the cap (9999 acts/row) is far above the
	// real threshold, so hammering succeeds.
	cfg := testConfig() // threshold 4800
	b := rowhammer.NewBank(cfg)
	bh := memctrl.NewBlockHammerPlugin(10_000) // sized for DDR4-new
	res := runAttack(t, b, bh, payload.DoubleSided(1000, windows(1)), -1)
	if res.FlipsByRow[1000] == 0 {
		t.Fatal("under-provisioned BlockHammer should have been broken")
	}
}

func TestBlockHammerThrottlesBenignHotRows(t *testing.T) {
	t.Parallel()
	// The paper's other critique: a legitimately hot row (think hot B-tree
	// root) gets its activations beyond the cap delayed — severe added
	// latency for benign traffic.
	cfg := testConfig()
	b := rowhammer.NewBank(cfg)
	bh := memctrl.NewBlockHammerPlugin(cfg.Threshold)
	// A benign workload that re-activates one row 3x the cap.
	res := runAttack(t, b, bh, payload.SingleSided(2222, windows(1)), -1)
	frac := float64(res.Throttled) / float64(res.Windows*memctrl.ActsPerWindow)
	if frac < 0.9 {
		t.Fatalf("hot-row throttle fraction %.2f; nearly all accesses beyond the cap must stall", frac)
	}
}

func TestBlockHammerNeverRefreshes(t *testing.T) {
	t.Parallel()
	// BlockHammer's defense is rate-limiting, not refreshing — so it is
	// immune to the Half-Double refresh-weaponization by construction.
	cfg := testConfig()
	b := rowhammer.NewBank(cfg)
	bh := memctrl.NewBlockHammerPlugin(cfg.Threshold)
	runAttack(t, b, bh, payload.HalfDouble(1500, 0, windows(1)), -1)
	if b.MitigationRefreshes != 0 {
		t.Fatalf("BlockHammer issued %d refreshes", b.MitigationRefreshes)
	}
}
