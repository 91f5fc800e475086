package experiments

import (
	"context"
	"testing"

	"safeguard/internal/ecc"
	fm "safeguard/internal/faultmodel"
	"safeguard/internal/sim"
)

// tinyPerf keeps unit tests fast; the benchmark harness runs Quick/Full.
func tinyPerf() PerfConfig {
	return PerfConfig{
		InstrPerCore:  60_000,
		WarmupInstr:   60_000,
		Seeds:         []uint64{1},
		MACLatencyCPU: 8,
		Workloads:     []string{"omnetpp", "leela", "lbm"},
	}
}

func TestFigure7Shape(t *testing.T) {
	t.Parallel()
	res, err := Figure7(context.Background(), tinyPerf())
	if err != nil {
		t.Fatalf("Figure7: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.BaseIPC <= 0 {
			t.Fatalf("%s: base IPC %v", row.Workload, row.BaseIPC)
		}
		s := row.Slowdown[sim.SafeGuard]
		if s < -0.10 || s > 0.25 {
			t.Fatalf("%s: SafeGuard slowdown %v outside sanity band", row.Workload, s)
		}
	}
}

func TestFigure12Ordering(t *testing.T) {
	t.Parallel()
	// Synergy's extra cost is per-writeback: the LLC must fill during
	// warm-up so dirty evictions flow in the measured window, hence the
	// longer budget and the write-heavy workload pair.
	cfg := tinyPerf()
	cfg.WarmupInstr = 250_000
	cfg.InstrPerCore = 150_000
	cfg.Workloads = []string{"mcf", "lbm"}
	res, err := Figure12(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Figure12: %v", err)
	}
	sg := res.Average(sim.SafeGuard)
	sgx := res.Average(sim.SGXStyle)
	syn := res.Average(sim.SynergyStyle)
	t.Logf("avg slowdowns: SafeGuard=%.3f Synergy=%.3f SGX=%.3f", sg, syn, sgx)
	// The paper's ordering: SGX >> Synergy >> SafeGuard.
	if !(sgx > syn && syn > sg) {
		t.Fatalf("ordering broken: SGX=%.4f Synergy=%.4f SafeGuard=%.4f", sgx, syn, sg)
	}
	if sgx < 0.05 {
		t.Fatalf("SGX-style slowdown %.4f implausibly small", sgx)
	}
}

func TestFigure13Monotone(t *testing.T) {
	t.Parallel()
	cfg := tinyPerf()
	cfg.Workloads = []string{"mcf", "omnetpp"}
	points, err := Figure13(context.Background(), cfg, []int64{8, 80})
	if err != nil {
		t.Fatalf("Figure13: %v", err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, sch := range []sim.Scheme{sim.SafeGuard, sim.SGXStyle, sim.SynergyStyle} {
		if points[1].Average[sch] <= points[0].Average[sch] {
			t.Fatalf("%v: slowdown not increasing with MAC latency (%.4f -> %.4f)",
				sch, points[0].Average[sch], points[1].Average[sch])
		}
	}
	// SafeGuard stays the cheapest at every latency.
	for _, p := range points {
		if p.Average[sim.SafeGuard] > p.Average[sim.SGXStyle] {
			t.Fatalf("SafeGuard above SGX at latency %d", p.MACLatencyCPU)
		}
	}
}

func TestFigure6Quick(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("Monte-Carlo study")
	}
	cfg := QuickReliability()
	cfg.Modules = 200_000
	rs, err := Figure6(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	if len(rs) != 3 {
		t.Fatalf("results = %d", len(rs))
	}
	secded, noPar, par := rs[0].Probability(), rs[1].Probability(), rs[2].Probability()
	if secded == 0 {
		t.Fatal("no SECDED failures sampled")
	}
	if ratio := noPar / secded; ratio < 1.1 || ratio > 1.45 {
		t.Fatalf("no-parity ratio %.3f, want ~1.25", ratio)
	}
	if ratio := par / secded; ratio < 0.9 || ratio > 1.15 {
		t.Fatalf("with-parity ratio %.3f, want ~1.0", ratio)
	}
}

func TestFigure10Quick(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("Monte-Carlo study")
	}
	cfg := QuickReliability()
	cfg.Modules = 200_000
	out, err := Figure10(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Figure10: %v", err)
	}
	for scale, rs := range out {
		ck, sg := rs[0].Probability(), rs[1].Probability()
		t.Logf("FITx%.0f: Chipkill=%.6f SafeGuard=%.6f", scale, ck, sg)
		if scale == 10 && ck == 0 {
			t.Fatal("10x FIT must produce Chipkill failures")
		}
		if ck > 0 && sg/ck > 6 {
			t.Fatalf("SafeGuard-Chipkill %.1fx worse than Chipkill at FITx%.0f", sg/ck, scale)
		}
	}
}

func TestTable4Matrix(t *testing.T) {
	t.Parallel()
	m := Table4(300, 1)
	sec, sg := m["SECDED"], m["SafeGuard"]
	// Both correct single bits.
	if !sec[fm.SingleBit].Correct || !sg[fm.SingleBit].Correct {
		t.Fatal("single-bit row broken")
	}
	// Both handle columns; only SECDED handles them at word granularity,
	// SafeGuard through column parity.
	if !sec[fm.SingleColumn].Correct || !sg[fm.SingleColumn].Correct {
		t.Fatal("single-column row broken")
	}
	// SafeGuard detects everything (zero silent) across all modes.
	for mode, cell := range sg {
		if cell.Silent != 0 {
			t.Fatalf("SafeGuard silent on %v: %+v", mode, cell)
		}
	}
	// SECDED is defeated (silent corruptions possible) beyond column
	// faults — the paper's asterisks.
	silentSomewhere := false
	for _, mode := range []fm.Mode{fm.SingleWord, fm.SingleRow, fm.SingleBank, fm.MultiBank, fm.MultiRank} {
		if sec[mode].Correct {
			t.Fatalf("SECDED cannot correct %v", mode)
		}
		if sec[mode].Silent > 0 {
			silentSomewhere = true
		}
	}
	if !silentSomewhere {
		t.Fatal("expected SECDED silent corruptions on multi-bit modes")
	}
}

func TestMeasureEscapes18xGap(t *testing.T) {
	t.Parallel()
	iter, err := MeasureEscapes(ecc.Iterative, 6, 4000, 3)
	if err != nil {
		t.Fatalf("MeasureEscapes: %v", err)
	}
	eager, err := MeasureEscapes(ecc.Eager, 6, 4000, 3)
	if err != nil {
		t.Fatalf("MeasureEscapes: %v", err)
	}
	t.Logf("iterative: rate=%.4f checks=%d; eager: rate=%.4f checks=%d",
		iter.Rate(), iter.FaultyMACChecks, eager.Rate(), eager.FaultyMACChecks)
	if iter.FaultyMACChecks < 10*eager.FaultyMACChecks {
		t.Fatalf("faulty-check exposure gap too small: %d vs %d", iter.FaultyMACChecks, eager.FaultyMACChecks)
	}
	if eager.Rate() > iter.Rate() && iter.Escapes > 0 {
		t.Fatal("eager escapes more than iterative")
	}
}

func TestFigure1b(t *testing.T) {
	t.Parallel()
	results := Figure1b(7)
	if len(results) != 4 {
		t.Fatalf("studies = %d", len(results))
	}
	for _, r := range results {
		if !r.Attack.Broke() {
			t.Fatalf("attack %s vs %s produced no flips", r.Attack.Program, r.Attack.Mitigation)
		}
		for _, d := range r.Detection {
			if d.Scheme != "SECDED" && d.Silent != 0 {
				t.Fatalf("%s leaked %d silent lines under %s", d.Scheme, d.Silent, r.Attack.Program)
			}
		}
	}
	// Half-Double studies must show distance-2 flips.
	for _, r := range results[1:] {
		if r.DistanceTwoFlips == 0 {
			t.Fatalf("%s vs %s: no distance-2 flips", r.Attack.Program, r.Attack.Mitigation)
		}
	}
}

func TestFigure2(t *testing.T) {
	t.Parallel()
	r := Figure2(5)
	if r.FlipsInNeighbors == 0 {
		t.Fatal("no flips at threshold")
	}
	if r.ActivationsUsed > r.Threshold+8 {
		t.Fatalf("double-sided needed %d acts at threshold %d", r.ActivationsUsed, r.Threshold)
	}
}
