package rowhammer_test

import (
	"context"
	"testing"

	"safeguard/internal/memctrl"
	"safeguard/internal/payload"
	"safeguard/internal/rowhammer"
)

// The controller-driven attack tests run a double-sided program through
// payload.Run, which folds the controller's command stream into the
// disturbance model with an ActivationTracer.

func mcCfg(mit string) payload.RunConfig {
	return payload.RunConfig{
		Bank: rowhammer.Config{
			Rows: 8192, Threshold: 1000, LinesPerRow: 16,
			VulnerableCellsPerRow: 64, FlipsPerCrossing: 8, Seed: 7,
		},
		Mitigation: mit,
		Seed:       7,
	}
}

func runMC(t *testing.T, cfg payload.RunConfig, accesses int) payload.Result {
	t.Helper()
	res, err := payload.Run(context.Background(), cfg, payload.DoubleSided(4000, accesses))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMCAttackUnmitigatedFlips(t *testing.T) {
	t.Parallel()
	res := runMC(t, mcCfg("none"), 6000)
	if res.TotalFlips == 0 {
		t.Fatal("unmitigated double-sided hammering above threshold produced no flips")
	}
	if acts := int(res.PluginStats["activation-tracer"]["acts"]); acts < res.Activations {
		t.Fatalf("only %d ACTs for %d accesses; every row switch should activate", acts, res.Activations)
	}
	if res.MCStats.VRRs != 0 {
		t.Fatalf("no mitigation attached but controller issued %d VRRs", res.MCStats.VRRs)
	}
	if res.Stalled {
		t.Fatal("unthrottled attack must not stall")
	}
}

func TestMCAttackGrapheneProtects(t *testing.T) {
	t.Parallel()
	res := runMC(t, mcCfg("graphene"), 6000)
	if res.TotalFlips != 0 {
		t.Fatalf("Graphene let %d flips through at its design threshold", res.TotalFlips)
	}
	if res.MCStats.VRRs == 0 || res.MitigationRefreshes == 0 {
		t.Fatalf("Graphene protected without issuing VRRs (VRRs=%d, refreshes=%d)",
			res.MCStats.VRRs, res.MitigationRefreshes)
	}
	if res.PluginStats["graphene"]["triggers"] == 0 {
		t.Fatalf("plugin stats missing trigger count: %v", res.PluginStats)
	}
}

func TestMCAttackBlockHammerStalls(t *testing.T) {
	t.Parallel()
	cfg := mcCfg("blockhammer")
	cfg.MaxCycles = 1_500_000
	res := runMC(t, cfg, 4000)
	if !res.Stalled {
		t.Fatal("BlockHammer should stall a two-row hammering attacker at the cap")
	}
	if res.TotalFlips != 0 {
		t.Fatalf("BlockHammer stalled the attacker yet %d flips landed", res.TotalFlips)
	}
	if res.PluginStats["blockhammer"]["throttled"] == 0 {
		t.Fatalf("stall without throttle events: %v", res.PluginStats)
	}
}

func TestMCAttackDeterministic(t *testing.T) {
	t.Parallel()
	a := runMC(t, mcCfg("para"), 6000)
	b := runMC(t, mcCfg("para"), 6000)
	if a.TotalFlips != b.TotalFlips || a.Cycles != b.Cycles || a.MCStats.VRRs != b.MCStats.VRRs {
		t.Fatalf("same seed diverged: (%d flips, %d cycles, %d VRRs) vs (%d, %d, %d)",
			a.TotalFlips, a.Cycles, a.MCStats.VRRs, b.TotalFlips, b.Cycles, b.MCStats.VRRs)
	}
}

func TestMCAttackRejectsUnknownMitigation(t *testing.T) {
	t.Parallel()
	if _, err := payload.Run(context.Background(), mcCfg("definitely-not-real"), payload.DoubleSided(4000, 10)); err == nil {
		t.Fatal("unknown mitigation must error")
	}
}

func TestMCAttackRejectsOutOfRangePattern(t *testing.T) {
	t.Parallel()
	if _, err := payload.Run(context.Background(), mcCfg("none"), payload.DoubleSided(9000, 10)); err == nil {
		t.Fatal("program rows beyond the bank must error")
	}
}

// TestActivationTracerDisturbance drives the tracer directly: activations
// disturb, VRRs heal, REFs advance the window clock.
func TestActivationTracerDisturbance(t *testing.T) {
	t.Parallel()
	cfg := rowhammer.DefaultConfig()
	cfg.Rows = 64
	cfg.Threshold = 100
	cfg.Seed = 5
	tr := rowhammer.NewActivationTracer(cfg)
	for i := 0; i < 2*cfg.Threshold; i++ {
		tr.OnCommand(memctrl.CmdACT, 0, 0, 10, int64(i))
		tr.OnCommand(memctrl.CmdACT, 0, 0, 12, int64(i))
	}
	if len(tr.Flips()) == 0 {
		t.Fatal("double-sided activations past threshold flipped nothing in the tracer's bank")
	}
	s := tr.DrainStats()
	if s["acts"] != float64(4*cfg.Threshold) {
		t.Fatalf("tracer counted %v acts, want %d", s["acts"], 4*cfg.Threshold)
	}
	if again := tr.DrainStats(); again["acts"] != 0 {
		t.Fatalf("DrainStats must return deltas; second drain saw %v acts", again["acts"])
	}
}

// TestActivationTracerVRRHeals shows a VRR between activation bursts
// resets the victim's disturbance, exactly like Bank.RefreshRow. The
// outer rows 9 and 13 still flip — a VRR on the middle victim cannot
// protect them — so the assertion is scoped to row 11.
func TestActivationTracerVRRHeals(t *testing.T) {
	t.Parallel()
	cfg := rowhammer.DefaultConfig()
	cfg.Rows = 64
	cfg.Threshold = 100
	cfg.Seed = 5
	tr := rowhammer.NewActivationTracer(cfg)
	for i := 0; i < cfg.Threshold; i++ {
		tr.OnCommand(memctrl.CmdACT, 0, 0, 10, int64(i))
		tr.OnCommand(memctrl.CmdACT, 0, 0, 12, int64(i))
		// Each iteration disturbs the victim twice (both neighbours), so
		// refresh well before 2*20 reaches the threshold of 100.
		if i%20 == 19 {
			tr.OnCommand(memctrl.CmdVRR, 0, 0, 11, int64(i))
		}
	}
	for _, f := range tr.Flips() {
		if f.Row == 11 {
			t.Fatalf("the VRR-protected victim row flipped: %+v", f)
		}
	}
	if len(tr.Bank(0, 0).FlipsInRow(9)) == 0 {
		t.Fatal("outer row 9 should flip (no VRR covers it); the model went inert")
	}
}
