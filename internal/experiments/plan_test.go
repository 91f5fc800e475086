package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"safeguard/internal/sim"
	"safeguard/internal/telemetry"
)

// TestSuitePlanCounts: at the Quick preset the whole suite is 760
// simulations one figure at a time, of which 400 are distinct — Figure
// 11 repeats Figure 7, Figure 12 contains it, the full-SGX extension
// shares three of its four schemes with Figure 12, Figure 13's 8-cycle
// point is Figure 12, and Baseline is one cell at every MAC latency.
func TestSuitePlanCounts(t *testing.T) {
	t.Parallel()
	p := NewPlan(QuickPerf(), SuiteFigures()...)
	uses := 0
	for _, u := range p.uses {
		uses += len(u)
	}
	if uses != 760 || len(p.cells) != 400 {
		t.Fatalf("plan: %d uses, %d distinct cells; want 760 and 400", uses, len(p.cells))
	}
}

// tinySuite is a budget at which the whole suite runs in about a second.
func tinySuite() PerfConfig {
	cfg := QuickPerf()
	cfg.InstrPerCore, cfg.WarmupInstr = 4_000, 2_000
	cfg.Workloads = []string{"mcf", "leela"}
	cfg.Attrib = true
	return cfg
}

// runSuite runs the suite as one plan on the given worker count.
func runSuite(t *testing.T, workers int) ([]FigureResult, telemetry.Snapshot) {
	t.Helper()
	cfg := tinySuite()
	cfg.Parallelism = workers
	cfg.Telemetry = telemetry.NewRegistry()
	res, err := NewPlan(cfg, SuiteFigures()...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if !r.Complete {
			t.Fatalf("%s incomplete after a clean run", r.Name)
		}
	}
	return res, cfg.Telemetry.Snapshot()
}

// TestSuitePlanMatchesPerFigureCalls: running each distinct cell once
// and replaying its telemetry per use gives every figure, and the
// registry, exactly what the per-figure calls give.
func TestSuitePlanMatchesPerFigureCalls(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	planned, plannedSnap := runSuite(t, 0)

	cfg := tinySuite()
	cfg.Telemetry = telemetry.NewRegistry()
	var want []PerfResult
	for _, run := range []func(context.Context, PerfConfig) (PerfResult, error){Figure7, Figure11, Figure12,
		func(ctx context.Context, c PerfConfig) (PerfResult, error) {
			return RunSchemes(ctx, c, []sim.Scheme{sim.SafeGuard, sim.SGXStyle, sim.SGXFullStyle})
		},
	} {
		res, err := run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	points, err := Figure13(ctx, cfg, []int64{8, 16, 40, 80})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if !reflect.DeepEqual(planned[i].Perf, w) {
			t.Errorf("%s: plan %+v, per-figure call %+v", planned[i].Name, planned[i].Perf, w)
		}
	}
	if !reflect.DeepEqual(planned[4].Points, points) {
		t.Errorf("fig13: plan %+v, per-figure call %+v", planned[4].Points, points)
	}
	if got := cfg.Telemetry.Snapshot(); !reflect.DeepEqual(plannedSnap, got) {
		t.Errorf("plan registry differs from the per-figure calls' registry")
	}
	if runs := plannedSnap.Counters["experiments.runs"]; runs != 112 {
		t.Errorf("experiments.runs = %d, want one per use (112)", runs)
	}
}

// TestSuitePlanWorkerCountIndependent: the plan's figures and registry
// are bit-identical on one worker and on four.
func TestSuitePlanWorkerCountIndependent(t *testing.T) {
	t.Parallel()
	one, oneSnap := runSuite(t, 1)
	four, fourSnap := runSuite(t, 4)
	if !reflect.DeepEqual(one, four) {
		t.Error("figures differ between 1 and 4 workers")
	}
	if !reflect.DeepEqual(oneSnap, fourSnap) {
		t.Error("registries differ between 1 and 4 workers")
	}
}

// TestPlanCancelled: a cancelled run reports every figure incomplete,
// with no rows, and returns the context's error.
func TestPlanCancelled(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := NewPlan(tinySuite(), SuiteFigures()...).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, r := range res {
		if r.Complete || len(r.Perf.Rows) != 0 || len(r.Points) != 0 {
			t.Errorf("%s: complete=%v rows=%d points=%d after cancel", r.Name, r.Complete, len(r.Perf.Rows), len(r.Points))
		}
	}
}
