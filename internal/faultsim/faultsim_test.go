package faultsim

import (
	"context"
	"math"
	"reflect"
	"testing"

	fm "safeguard/internal/faultmodel"
)

func fault(mode fm.Mode, rank, chip, bank, row, col int) fm.Fault {
	return fm.Fault{Mode: mode, Rank: rank, Chip: chip, Bank: bank, Row: row, Col: col}
}

func mustRun(t *testing.T, eval Evaluator, cfg Config) Result {
	t.Helper()
	res, err := Run(eval, cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", eval.Name(), err)
	}
	return res
}

// ---------------------------------------------------------------------------
// Evaluator unit tests
// ---------------------------------------------------------------------------

func TestSECDEDFatalAlone(t *testing.T) {
	t.Parallel()
	e := SECDEDEval{}
	survivable := []fm.Mode{fm.SingleBit, fm.SingleColumn}
	fatal := []fm.Mode{fm.SingleWord, fm.SingleRow, fm.SingleBank, fm.MultiBank, fm.MultiRank}
	for _, m := range survivable {
		if e.FatalAlone(fm.Fault{Mode: m}) {
			t.Fatalf("%v should be survivable alone", m)
		}
	}
	for _, m := range fatal {
		if !e.FatalAlone(fm.Fault{Mode: m}) {
			t.Fatalf("%v should be fatal alone for SECDED", m)
		}
	}
}

func TestSECDEDPairGeometry(t *testing.T) {
	t.Parallel()
	e := SECDEDEval{}
	// Two bits, different chips, same word (bank 2, row 7, beat 3:
	// cols 24..31).
	a := fault(fm.SingleBit, 0, 1, 2, 7, 25)
	b := fault(fm.SingleBit, 0, 4, 2, 7, 30)
	if !e.PairFatal(a, b) {
		t.Fatal("two bits in one word must be fatal")
	}
	// Different beat -> different word.
	c := fault(fm.SingleBit, 0, 4, 2, 7, 33)
	if e.PairFatal(a, c) {
		t.Fatal("bits in different beats are independent words")
	}
	// Different rank never shares words.
	d := fault(fm.SingleBit, 1, 4, 2, 7, 30)
	if e.PairFatal(a, d) {
		t.Fatal("different ranks cannot collide")
	}
	// Different row.
	g := fault(fm.SingleBit, 0, 4, 2, 8, 30)
	if e.PairFatal(a, g) {
		t.Fatal("different rows cannot collide")
	}
	// Column + bit in the same beat group, any row: fatal.
	col := fault(fm.SingleColumn, 0, 3, 2, -1, 26)
	if !e.PairFatal(col, a) {
		t.Fatal("column + bit sharing a beat must be fatal")
	}
	// Column + bit in different banks: safe.
	colOther := fault(fm.SingleColumn, 0, 3, 9, -1, 26)
	if e.PairFatal(colOther, a) {
		t.Fatal("different banks cannot collide")
	}
	// The same chip, same column (same bits): not two errors.
	same1 := fault(fm.SingleBit, 0, 1, 2, 7, 25)
	if e.PairFatal(a, same1) {
		t.Fatal("identical bit positions are the same fault")
	}
}

func TestSafeGuardSECDEDFatalAlone(t *testing.T) {
	t.Parallel()
	withParity := SafeGuardSECDEDEval{ColumnParity: true}
	noParity := SafeGuardSECDEDEval{ColumnParity: false}

	dataCol := fault(fm.SingleColumn, 0, 3, 1, -1, 100)
	eccCol := fault(fm.SingleColumn, 0, eccChipX8, 1, -1, 100)
	if withParity.FatalAlone(dataCol) {
		t.Fatal("column parity must survive data-chip column faults")
	}
	if !withParity.FatalAlone(eccCol) {
		t.Fatal("an ECC-chip column fault exceeds SafeGuard")
	}
	if !noParity.FatalAlone(dataCol) {
		t.Fatal("without parity, column faults are fatal (the 1.25x of Fig 6)")
	}
	for _, m := range []fm.Mode{fm.SingleWord, fm.SingleRow, fm.SingleBank, fm.MultiBank, fm.MultiRank} {
		if !withParity.FatalAlone(fm.Fault{Mode: m}) {
			t.Fatalf("%v should be fatal (DUE) for SafeGuard", m)
		}
	}
	if withParity.FatalAlone(fm.Fault{Mode: fm.SingleBit, Chip: eccChipX8}) {
		t.Fatal("a single metadata bit is repaired by ECC-1")
	}
}

func TestSafeGuardSECDEDPairGeometry(t *testing.T) {
	t.Parallel()
	e := SafeGuardSECDEDEval{ColumnParity: true}
	// Two bits in one line (64-column window) but different beats: fatal
	// for SafeGuard (word-granularity SECDED would have survived this).
	a := fault(fm.SingleBit, 0, 1, 2, 7, 5)
	b := fault(fm.SingleBit, 0, 4, 2, 7, 60)
	if !e.PairFatal(a, b) {
		t.Fatal("two bits in one line exceed ECC-1")
	}
	if (SECDEDEval{}).PairFatal(a, b) {
		t.Fatal("sanity: word SECDED survives bits in different beats")
	}
	// Different lines: safe.
	c := fault(fm.SingleBit, 0, 4, 2, 7, 70)
	if e.PairFatal(a, c) {
		t.Fatal("different lines are independent")
	}
	// Same chip, same pin, same line: one pin symbol, recoverable.
	p1 := fault(fm.SingleBit, 0, 1, 2, 7, 5)
	p2 := fault(fm.SingleBit, 0, 1, 2, 7, 13) // 13 % 8 == 5 % 8
	if e.PairFatal(p1, p2) {
		t.Fatal("two bits on one pin are a single recoverable pin symbol")
	}
	// Same chip, different pins, same line: fatal.
	p3 := fault(fm.SingleBit, 0, 1, 2, 7, 14)
	if !e.PairFatal(p1, p3) {
		t.Fatal("two pins damaged in one line must be fatal")
	}
	// Column + bit on the same pin in one chip: still one pin symbol.
	col := fault(fm.SingleColumn, 0, 1, 2, -1, 21) // pin 5
	if e.PairFatal(p1, col) {
		t.Fatal("column and bit on one pin are recoverable together")
	}
}

func TestChipkillPairGeometry(t *testing.T) {
	t.Parallel()
	e := ChipkillEval{}
	for _, m := range []fm.Mode{fm.SingleRow, fm.SingleBank, fm.MultiBank, fm.MultiRank} {
		if e.FatalAlone(fm.Fault{Mode: m}) {
			t.Fatalf("%v confined to one chip must be survivable for Chipkill", m)
		}
	}
	// Two row faults, different chips, same bank+row: fatal.
	a := fault(fm.SingleRow, 0, 2, 3, 40, -1)
	b := fault(fm.SingleRow, 0, 9, 3, 40, -1)
	if !e.PairFatal(a, b) {
		t.Fatal("two chips' rows colliding must exceed SSC")
	}
	// Same chip: never fatal.
	c := fault(fm.SingleRow, 0, 2, 3, 41, -1)
	if e.PairFatal(a, c) {
		t.Fatal("same chip is a single symbol")
	}
	// Bank fault + bit fault in another chip, same bank: fatal.
	bank := fault(fm.SingleBank, 0, 5, 3, -1, -1)
	bit := fault(fm.SingleBit, 0, 8, 3, 40, 17)
	if !e.PairFatal(bank, bit) {
		t.Fatal("bank + bit in one codeword must be fatal")
	}
	// Two bits in different chips, same beat pair (cols 16..23): fatal.
	b1 := fault(fm.SingleBit, 0, 1, 0, 9, 17)
	b2 := fault(fm.SingleBit, 0, 7, 0, 9, 22)
	if !e.PairFatal(b1, b2) {
		t.Fatal("two chips in one beat pair must be fatal")
	}
	// Same position different ranks via multi-rank: survivable.
	mr := fault(fm.MultiRank, -1, 1, -1, -1, -1)
	samePos := fault(fm.SingleBank, 0, 1, 2, -1, -1)
	if e.PairFatal(mr, samePos) {
		t.Fatal("multi-rank + same chip position stays single-symbol")
	}
	otherPos := fault(fm.SingleBank, 1, 4, 2, -1, -1)
	if !e.PairFatal(mr, otherPos) {
		t.Fatal("multi-rank + other chip must collide")
	}
}

func TestSafeGuardChipkillWindow(t *testing.T) {
	t.Parallel()
	e := SafeGuardChipkillEval{}
	// SafeGuard's line window (32 cols) is wider than Chipkill's beat
	// pair (8): bits at cols 2 and 30 in different chips collide for
	// SafeGuard but not for Chipkill.
	a := fault(fm.SingleBit, 0, 1, 0, 9, 2)
	b := fault(fm.SingleBit, 0, 7, 0, 9, 30)
	if !e.PairFatal(a, b) {
		t.Fatal("two chips in one line must be fatal for SafeGuard")
	}
	if (ChipkillEval{}).PairFatal(a, b) {
		t.Fatal("sanity: conventional Chipkill sees different beat pairs")
	}
}

// ---------------------------------------------------------------------------
// Monte-Carlo runs (Figures 6 and 10 shapes at reduced population)
// ---------------------------------------------------------------------------

func mcConfig(modules int) Config {
	return Config{Modules: modules, Years: 7, FITScale: 1, Seed: 42}
}

func TestFigure6Shape(t *testing.T) {
	t.Parallel()
	// SafeGuard without column parity fails ~1.25x more often than
	// SECDED; with column parity the curves are virtually identical
	// (within a few percent — the residual gap is ECC-chip column faults
	// and the line-vs-word collision window).
	if testing.Short() {
		t.Skip("Monte-Carlo study")
	}
	cfg := mcConfig(400_000)
	secded := mustRun(t, SECDEDEval{}, cfg)
	sgNoPar := mustRun(t, SafeGuardSECDEDEval{ColumnParity: false}, cfg)
	sgPar := mustRun(t, SafeGuardSECDEDEval{ColumnParity: true}, cfg)

	pS, pN, pP := secded.Probability(), sgNoPar.Probability(), sgPar.Probability()
	t.Logf("P(fail,7y): SECDED=%.5f  SG-noparity=%.5f  SG-parity=%.5f", pS, pN, pP)
	if pS == 0 {
		t.Fatal("no SECDED failures sampled; population too small")
	}
	ratioNoPar := pN / pS
	if ratioNoPar < 1.15 || ratioNoPar > 1.40 {
		t.Fatalf("no-parity/SECDED ratio %.3f, paper reports ~1.25", ratioNoPar)
	}
	ratioPar := pP / pS
	if ratioPar < 0.95 || ratioPar > 1.10 {
		t.Fatalf("parity/SECDED ratio %.3f, paper reports ~1.0", ratioPar)
	}
	// Cumulative curves must be monotone.
	for _, r := range []Result{secded, sgNoPar, sgPar} {
		prev := 0
		for _, f := range r.FailedByYear {
			if f < prev {
				t.Fatalf("%s: non-monotone cumulative failures", r.Scheme)
			}
			prev = f
		}
	}
}

func TestFigure10Shape(t *testing.T) {
	t.Parallel()
	// SafeGuard-Chipkill tracks Chipkill at 1x and 10x FIT rates.
	if testing.Short() {
		t.Skip("Monte-Carlo study")
	}
	for _, scale := range []float64{1, 10} {
		cfg := mcConfig(400_000)
		cfg.FITScale = scale
		ck := mustRun(t, ChipkillEval{}, cfg)
		sg := mustRun(t, SafeGuardChipkillEval{}, cfg)
		t.Logf("FITx%.0f: Chipkill=%.6f SafeGuard=%.6f", scale, ck.Probability(), sg.Probability())
		if scale == 10 && ck.Probability() == 0 {
			t.Fatal("10x FIT should produce some Chipkill failures")
		}
		// SafeGuard's line window is slightly wider; allow up to 6x at
		// these tiny absolute probabilities, require same order.
		if ck.Probability() > 0 {
			ratio := sg.Probability() / ck.Probability()
			if ratio > 6 {
				t.Fatalf("SafeGuard-Chipkill fails %.1fx more than Chipkill", ratio)
			}
		}
	}
}

func TestChipkillFarMoreReliableThanSECDED(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("Monte-Carlo study")
	}
	cfg := mcConfig(200_000)
	secded := mustRun(t, SECDEDEval{}, cfg)
	ck := mustRun(t, ChipkillEval{}, cfg)
	if ck.Probability() >= secded.Probability() {
		t.Fatalf("Chipkill (%.6f) should beat SECDED (%.6f)", ck.Probability(), secded.Probability())
	}
}

func TestSECDEDFailureRateMatchesAnalyticBound(t *testing.T) {
	t.Parallel()
	// SECDED single-fault failures are driven by the fatal modes:
	// 26.3 FIT/chip x 18 chips x 7y -> P ≈ 1 - exp(-lambda) ≈ 2.86%
	// (multi-rank counted per position: 22.6x18 + 3.7x9).
	if testing.Short() {
		t.Skip("Monte-Carlo study")
	}
	cfg := mcConfig(300_000)
	res := mustRun(t, SECDEDEval{}, cfg)
	hours := 7 * fm.HoursPerYear
	lambda := (26.3-3.7)*1e-9*hours*18 + 3.7*1e-9*hours*9
	want := 1 - math.Exp(-lambda)
	got := res.Probability()
	if math.Abs(got-want)/want > 0.10 {
		t.Fatalf("SECDED P(fail)=%.5f, analytic ~%.5f", got, want)
	}
}

func TestRunDeterminism(t *testing.T) {
	t.Parallel()
	cfg := Config{Modules: 50_000, Years: 7, Seed: 7, Workers: 4}
	a := mustRun(t, SECDEDEval{}, cfg)
	b := mustRun(t, SECDEDEval{}, cfg)
	if a.Failed != b.Failed || a.SingleFaultFailures != b.SingleFaultFailures {
		t.Fatal("same seed must reproduce identical results")
	}
}

func TestRunBitIdenticalAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	// The block-based partitioning ties every module's RNG to its block
	// index, not to a worker: the same seed must give byte-for-byte the
	// same result no matter how the work is spread.
	base := Config{Modules: 30_000, Years: 7, Seed: 13, FITScale: 10}
	var ref Result
	for i, workers := range []int{1, 4, 8} {
		cfg := base
		cfg.Workers = workers
		res := mustRun(t, SECDEDEval{}, cfg)
		res.Config = Config{} // only the measured outcome must match
		if i == 0 {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("workers=%d result differs from workers=1:\n%+v\nvs\n%+v", workers, res, ref)
		}
	}
	if ref.Failed == 0 {
		t.Fatal("degenerate comparison: no failures sampled")
	}
}

// panicEval fails like a buggy Evaluator: FatalAlone panics on the first
// fault it sees.
type panicEval struct{ SECDEDEval }

func (panicEval) FatalAlone(f fm.Fault) bool { panic("evaluator bug") }

func TestWorkerPanicBecomesError(t *testing.T) {
	t.Parallel()
	cfg := Config{Modules: 30_000, Years: 7, Seed: 3, Workers: 4, FITScale: 10}
	if _, err := Run(panicEval{}, cfg); err == nil {
		t.Fatal("worker panic not surfaced as error")
	}
}

func TestRunContextCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, SECDEDEval{}, Config{Modules: 1_000_000, Years: 7, Seed: 5})
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	// The partial result covers only the modules actually simulated.
	if res.Modules > 1_000_000 {
		t.Fatalf("partial result claims %d modules", res.Modules)
	}
}

func TestRunAllAndResultHelpers(t *testing.T) {
	t.Parallel()
	cfg := Config{Modules: 20_000, Years: 7, Seed: 9}
	rs, err := RunAll([]Evaluator{SECDEDEval{}, ChipkillEval{}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatal("RunAll result count")
	}
	probs := rs[0].ProbabilityByYear()
	if len(probs) != 7 {
		t.Fatalf("expected 7 yearly samples, got %d", len(probs))
	}
	if rs[0].String() == "" {
		t.Fatal("empty summary")
	}
}

func TestBadConfigError(t *testing.T) {
	t.Parallel()
	if _, err := Run(SECDEDEval{}, Config{Modules: 0}); err == nil {
		t.Fatal("Modules=0 accepted")
	}
	if _, err := Run(SECDEDEval{}, Config{Modules: 100, ScrubIntervalHours: -1}); err == nil {
		t.Fatal("negative scrub interval accepted")
	}
	if _, err := Run(SECDEDEval{}, Config{Modules: 100, RetireIntervalHours: -1}); err == nil {
		t.Fatal("negative retire interval accepted")
	}
}

// TestYearsOutOfRangeIsError: a horizon under half a year used to give
// zero year buckets and panic on the first failure; an astronomic one
// panicked sizing the buckets inside a worker goroutine, outside any
// recover. Both, and every non-finite horizon, are now config errors.
func TestYearsOutOfRangeIsError(t *testing.T) {
	t.Parallel()
	for _, years := range []float64{0, 0.3, MaxYears + 0.5, 1e300, math.Inf(1), math.NaN()} {
		cfg := Config{Modules: 5_000, Years: years, Seed: 3, Workers: 2, FITScale: 10}
		if _, err := Run(SECDEDEval{}, cfg); err == nil {
			t.Errorf("Years=%g accepted", years)
		}
		cfg.CIHalfWidth = 0.01
		if _, err := Run(SECDEDEval{}, cfg); err == nil {
			t.Errorf("adaptive Years=%g accepted", years)
		}
	}
	for _, years := range []float64{0.5, MaxYears} {
		res := mustRun(t, SECDEDEval{}, Config{Modules: 5_000, Years: years, Seed: 3, Workers: 2, FITScale: 10})
		if len(res.FailedByYear) != int(years+0.5) || res.Failed == 0 {
			t.Errorf("Years=%g: %d year buckets, %d failed", years, len(res.FailedByYear), res.Failed)
		}
	}
}

func TestScrubbingReducesPairFailures(t *testing.T) {
	t.Parallel()
	// Chipkill's failures are all fault pairs; daily patrol scrubbing
	// removes transient partners before most collisions can form, so its
	// failure probability must drop substantially.
	if testing.Short() {
		t.Skip("Monte-Carlo study")
	}
	base := Config{Modules: 400_000, Years: 7, Seed: 11, FITScale: 10}
	scrubbed := base
	scrubbed.ScrubIntervalHours = 24
	off := mustRun(t, ChipkillEval{}, base)
	on := mustRun(t, ChipkillEval{}, scrubbed)
	t.Logf("Chipkill P(fail): no scrub %.6f, daily scrub %.6f", off.Probability(), on.Probability())
	if off.Probability() == 0 {
		t.Fatal("baseline sampled no failures")
	}
	if on.Probability() > off.Probability()*0.9 {
		t.Fatalf("daily scrubbing should cut pair failures: %.6f -> %.6f",
			off.Probability(), on.Probability())
	}
	// Permanent-fault pairs survive scrubbing, so the probability must
	// not go to zero either.
	if on.Probability() == 0 {
		t.Fatal("scrubbing cannot remove permanent-fault pairs")
	}
}

func TestScrubbingWindowSemantics(t *testing.T) {
	t.Parallel()
	// A transient fault is active until the next scrub pass; a partner
	// arriving inside the window still collides.
	e := ChipkillEval{}
	early := fault(fm.SingleRow, 0, 2, 3, 40, -1)
	early.Transient = true
	early.Hours = 10
	late := fault(fm.SingleRow, 0, 9, 3, 40, -1)
	late.Hours = 30 // after the hour-24 scrub pass
	if h, _, _ := moduleFailure(e, []fm.Fault{early, late}, 24, 0); h >= 0 {
		t.Fatal("partner after the scrub pass must not collide")
	}
	inWindow := late
	inWindow.Hours = 20 // before the hour-24 pass
	if h, _, _ := moduleFailure(e, []fm.Fault{early, inWindow}, 24, 0); h < 0 {
		t.Fatal("partner inside the scrub window must collide")
	}
	// Permanent faults never scrub away.
	perm := early
	perm.Transient = false
	if h, _, _ := moduleFailure(e, []fm.Fault{perm, late}, 24, 0); h < 0 {
		t.Fatal("permanent fault should persist past scrubs")
	}
}

func TestRetirementWindowSemantics(t *testing.T) {
	t.Parallel()
	// Retirement closes the pairing window of *permanent* survivable
	// faults too — the capability scrubbing alone lacks.
	e := ChipkillEval{}
	perm := fault(fm.SingleRow, 0, 2, 3, 40, -1)
	perm.Hours = 10
	late := fault(fm.SingleRow, 0, 9, 3, 40, -1)
	late.Hours = 30
	if h, _, _ := moduleFailure(e, []fm.Fault{perm, late}, 24, 0); h < 0 {
		t.Fatal("sanity: without retirement the permanent pair is fatal")
	}
	if h, _, _ := moduleFailure(e, []fm.Fault{perm, late}, 0, 24); h >= 0 {
		t.Fatal("partner after the retire pass must not collide")
	}
	inWindow := late
	inWindow.Hours = 20
	if h, _, _ := moduleFailure(e, []fm.Fault{perm, inWindow}, 0, 24); h < 0 {
		t.Fatal("partner inside the retire window must collide")
	}
	// Retirement cannot save a fault that is fatal on its own.
	solo := fault(fm.MultiRank, -1, 1, -1, -1, -1)
	solo.Hours = 5
	if h, single, _ := moduleFailure(SECDEDEval{}, []fm.Fault{solo}, 24, 24); h < 0 || !single {
		t.Fatal("a fatal-alone fault must still fail under both policies")
	}
}

func TestRetirementReducesLifetimeFailures(t *testing.T) {
	t.Parallel()
	// The acceptance experiment: the same seed (hence the same sampled
	// fault histories) with retirement+scrubbing on must fail strictly
	// less often than policy-off, deterministically.
	if testing.Short() {
		t.Skip("Monte-Carlo study")
	}
	base := Config{Modules: 400_000, Years: 7, Seed: 11, FITScale: 10}
	policy := base
	policy.ScrubIntervalHours = 24
	policy.RetireIntervalHours = 24 * 7
	off := mustRun(t, ChipkillEval{}, base)
	on := mustRun(t, ChipkillEval{}, policy)
	t.Logf("Chipkill P(fail,7y): policy off %.6f, scrub+retire %.6f", off.Probability(), on.Probability())
	if off.Probability() == 0 {
		t.Fatal("baseline sampled no failures")
	}
	if on.Probability() >= off.Probability() {
		t.Fatalf("retirement+scrubbing must strictly reduce failures: %.6f -> %.6f",
			off.Probability(), on.Probability())
	}
	// Same samples, policies only remove pair opportunities: single-fault
	// failures are identical by construction.
	if on.SingleFaultFailures != off.SingleFaultFailures {
		t.Fatalf("single-fault failures changed: %d vs %d", on.SingleFaultFailures, off.SingleFaultFailures)
	}
	// And retirement beats scrubbing alone, because it also neutralizes
	// permanent partners.
	scrubOnly := base
	scrubOnly.ScrubIntervalHours = 24
	s := mustRun(t, ChipkillEval{}, scrubOnly)
	if on.Probability() > s.Probability() {
		t.Fatalf("scrub+retire (%.6f) should not fail more than scrub alone (%.6f)",
			on.Probability(), s.Probability())
	}
}
