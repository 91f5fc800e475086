// Command sgperf regenerates the SafeGuard paper's performance figures:
//
//	sgperf -fig7           SafeGuard vs SECDED baseline (per workload)
//	sgperf -fig11          SafeGuard vs Chipkill baseline (per workload)
//	sgperf -fig12          SafeGuard vs SGX-style vs Synergy-style
//	sgperf -fig13          sensitivity to MAC latency (8..80 cycles)
//	sgperf -schemes a,b,c  custom scheme comparison (names per ParseScheme)
//	sgperf -all            everything
//
// Figure selections are mutually exclusive; -all runs every figure.
// Budgets: -instr/-warmup set per-core instruction counts, -seeds the
// averaging runs. -full selects the paper-scale preset. -mitigation
// attaches an in-controller Row-Hammer defense (none, para, trr,
// graphene, blockhammer) to every run of the sweep. -snapshot DIR keeps
// a warm-start pool of post-warm-up sgsnap/1 checkpoints; with -resume
// later sweeps restore from it and skip the warm phase entirely while
// producing bit-identical figures. -attrib turns on
// cycle attribution and prints each scheme's CPI stack after the
// figures (see sgprof for the dedicated profiling front-end).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"safeguard/internal/attrib"
	"safeguard/internal/cliflags"
	"safeguard/internal/experiments"
	"safeguard/internal/memctrl"
	"safeguard/internal/report"
	"safeguard/internal/resultcache"
	"safeguard/internal/sim"
	"safeguard/internal/telemetry"
)

func main() {
	var (
		fig7       = flag.Bool("fig7", false, "run Figure 7 (SafeGuard vs SECDED)")
		fig11      = flag.Bool("fig11", false, "run Figure 11 (SafeGuard vs Chipkill)")
		fig12      = flag.Bool("fig12", false, "run Figure 12 (MAC organizations)")
		fig13      = flag.Bool("fig13", false, "run Figure 13 (MAC latency sweep)")
		fullsgx    = flag.Bool("fullsgx", false, "run the full-SGX (counters+tree) extension")
		schemes    = flag.String("schemes", "", "comma-separated schemes for a custom comparison (see -list-names)")
		all        = flag.Bool("all", false, "run every performance experiment")
		full       = flag.Bool("full", false, "paper-scale budgets (slower)")
		instr      = flag.Int64("instr", 0, "measured instructions per core (override)")
		warmup     = flag.Int64("warmup", 0, "warm-up instructions per core (override)")
		seeds      = flag.Int("seeds", 0, "number of seeds to average (override)")
		wl         = flag.String("workloads", "", "comma-separated workload subset")
		mitigation = flag.String("mitigation", "", "in-controller Row-Hammer mitigation attached to every run")
		threshold  = flag.Int("threshold", 0, "RH-Threshold sizing the mitigation (0 = Table I default)")
		attribCPI  = flag.Bool("attrib", false, "attribute every cycle to a cause and print per-scheme CPI stacks after the figures")
		listNames  = flag.Bool("list-names", false, "print the scheme and mitigation registries and exit")
	)
	tf := cliflags.Telemetry()
	sf := cliflags.Snapshot()
	flag.Parse()

	// SIGINT cancels the sweep; completed workloads are still reported.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *listNames {
		fmt.Printf("schemes:     %s\n", strings.Join(sim.SchemeNames(), ", "))
		fmt.Printf("mitigations: %s\n", strings.Join(memctrl.MitigationNames(), ", "))
		return
	}
	if err := cliflags.Exclusive(*all, map[string]bool{
		"fig7": *fig7, "fig11": *fig11, "fig12": *fig12, "fig13": *fig13,
		"fullsgx": *fullsgx, "schemes": *schemes != "",
	}); err != nil {
		cliflags.Fail(err)
	}
	customSchemes, err := cliflags.ParseSchemeList(*schemes)
	if err != nil {
		cliflags.Fail(err)
	}
	effTh := *threshold
	if effTh == 0 {
		effTh = 4800
	}
	if _, err := memctrl.NewMitigationPlugin(*mitigation, effTh, 1); err != nil {
		cliflags.Fail(err)
	}
	if err := sf.Validate(); err != nil {
		cliflags.Fail(err)
	}

	cfg := experiments.QuickPerf()
	if *full {
		cfg = experiments.FullPerf()
	}
	if *instr > 0 {
		cfg.InstrPerCore = *instr
	}
	if *warmup > 0 {
		cfg.WarmupInstr = *warmup
	}
	if *seeds > 0 {
		cfg.Seeds = cfg.Seeds[:0]
		for s := 1; s <= *seeds; s++ {
			cfg.Seeds = append(cfg.Seeds, uint64(s))
		}
	}
	if *wl != "" {
		cfg.Workloads = strings.Split(*wl, ",")
	}
	cfg.Mitigation = *mitigation
	cfg.RHThreshold = *threshold
	if err := tf.Activate(); err != nil {
		cliflags.Fail(err)
	}
	defer tf.MustFinish()
	cfg.Telemetry = tf.Registry
	cfg.Trace = tf.Tracer
	cfg.Attrib = *attribCPI
	if cfg.Attrib && cfg.Telemetry == nil {
		// CPI stacks travel as telemetry counters; attribution without
		// -stats still needs a registry to collect into.
		cfg.Telemetry = telemetry.NewRegistry()
	}
	tf.SetTraceMeta("tool", "sgperf")
	if *mitigation != "" {
		tf.SetTraceMeta("mitigation", *mitigation)
	}
	if sf.Enabled() {
		store, err := resultcache.New(resultcache.Options{Dir: sf.Dir, Telemetry: tf.Registry})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sgperf:", err)
			os.Exit(1)
		}
		pool := resultcache.NewWarmPool(store)
		if sf.Resume {
			cfg.WarmPool = pool
		} else {
			cfg.WarmPool = pool.DepositOnly()
		}
	}

	if len(customSchemes) > 0 {
		res, err := experiments.RunSchemes(ctx, cfg, customSchemes)
		interrupted(err)
		renderSchemes("Custom scheme comparison (slowdown vs baseline)", res, customSchemes, nil)
	}
	if *fig7 || *all {
		res, err := experiments.Figure7(ctx, cfg)
		interrupted(err)
		renderPerf("Figure 7: SafeGuard vs SECDED (slowdown per workload; paper avg 0.7%)",
			res, sim.SafeGuard)
	}
	if *fig11 || *all {
		res, err := experiments.Figure11(ctx, cfg)
		interrupted(err)
		renderPerf("Figure 11: SafeGuard vs Chipkill (slowdown per workload; paper avg 0.7%)",
			res, sim.SafeGuard)
	}
	if *fig12 || *all {
		res, err := experiments.Figure12(ctx, cfg)
		interrupted(err)
		renderSchemes("Figure 12: MAC organizations (slowdown vs baseline; paper: SGX 18.7%, Synergy 7.8%, SafeGuard 0.7%)",
			res, []sim.Scheme{sim.SafeGuard, sim.SGXStyle, sim.SynergyStyle}, nil)
	}
	if *fullsgx || *all {
		c := cfg
		if len(c.Workloads) == 0 {
			c.Workloads = []string{"mcf", "omnetpp", "lbm", "gcc", "leela"}
		}
		fullSGX := []sim.Scheme{sim.SafeGuard, sim.SGXStyle, sim.SGXFullStyle}
		res, err := experiments.RunSchemes(ctx, c, fullSGX)
		interrupted(err)
		renderSchemes("Extension: full SGX (MAC + counters + integrity tree), the metadata the paper's comparison excluded",
			res, fullSGX, []string{"SafeGuard", "SGX-style (MAC only)", "SGX-full (counters+tree)"})
	}
	if *fig13 || *all {
		points, err := experiments.Figure13(ctx, cfg, []int64{8, 16, 40, 80})
		interrupted(err)
		t := report.NewTable("Figure 13: sensitivity to MAC latency (average slowdown; paper: SafeGuard 5.8% at 80 cycles)",
			"MAC latency (CPU cycles)", "SafeGuard", "SGX-style", "Synergy-style")
		for _, p := range points {
			t.AddRowStrings(fmt.Sprint(p.MACLatencyCPU),
				report.Percent(p.Average[sim.SafeGuard]),
				report.Percent(p.Average[sim.SGXStyle]),
				report.Percent(p.Average[sim.SynergyStyle]))
		}
		t.Render(os.Stdout)
		fmt.Println()
	}
	if cfg.Attrib && cfg.Telemetry != nil {
		rep := attrib.NewReport()
		rep.AddStacksFromSnapshot(cfg.Telemetry.Snapshot())
		rep.WriteText(os.Stdout)
	}
}

// interrupted handles an experiment error: cancellation prints a partial-
// results banner and lets the already-collected rows render; any other
// error is fatal.
func interrupted(err error) {
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		fmt.Println("[interrupted — printing partial results]")
	default:
		fmt.Fprintln(os.Stderr, "sgperf:", err)
		os.Exit(1)
	}
}

func renderPerf(title string, res experiments.PerfResult, scheme sim.Scheme) {
	if len(res.Rows) == 0 {
		fmt.Println(title)
		fmt.Println("  (no workload completed)")
		fmt.Println()
		return
	}
	t := report.NewTable(title, "workload", "base IPC", "slowdown")
	for _, row := range res.Rows {
		t.AddRowStrings(row.Workload, fmt.Sprintf("%.3f", row.BaseIPC), report.Percent(row.Slowdown[scheme]))
	}
	worstName, worst := res.Worst(scheme)
	t.AddRowStrings("AVERAGE", "", report.Percent(res.Average(scheme)))
	t.AddRowStrings("WORST ("+worstName+")", "", report.Percent(worst))
	t.Render(os.Stdout)
	fmt.Println()
}

// renderSchemes prints a workload x scheme slowdown table with an AVERAGE
// row. headers label the scheme columns; nil uses the scheme names.
func renderSchemes(title string, res experiments.PerfResult, schemes []sim.Scheme, headers []string) {
	cols := []string{"workload"}
	for i, s := range schemes {
		if headers != nil {
			cols = append(cols, headers[i])
		} else {
			cols = append(cols, s.String())
		}
	}
	t := report.NewTable(title, cols...)
	for _, row := range res.Rows {
		cells := []string{row.Workload}
		for _, s := range schemes {
			cells = append(cells, report.Percent(row.Slowdown[s]))
		}
		t.AddRowStrings(cells...)
	}
	avg := []string{"AVERAGE"}
	for _, s := range schemes {
		avg = append(avg, report.Percent(res.Average(s)))
	}
	t.AddRowStrings(avg...)
	t.Render(os.Stdout)
	fmt.Println()
}
