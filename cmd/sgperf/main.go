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
	selected := map[string]bool{
		"fig7": *fig7, "fig11": *fig11, "fig12": *fig12, "fig13": *fig13,
		"fullsgx": *fullsgx, "schemes": *schemes != "",
	}
	if err := cliflags.Exclusive(*all, selected); err != nil {
		cliflags.Fail(err)
	}
	customSchemes, err := cliflags.ParseSchemeList(*schemes)
	if err != nil {
		cliflags.Fail(err)
	}
	if err := memctrl.CheckMitigation(*mitigation, *threshold); err != nil {
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
		cfg.Seeds = cliflags.Seeds(*seeds)
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
	if cfg.WarmPool, err = sf.WarmStore(tf.Registry); err != nil {
		fmt.Fprintln(os.Stderr, "sgperf:", err)
		os.Exit(1)
	}

	// The selected figures run as one plan: each distinct simulation once,
	// in print order, so an interrupt leaves the earliest figures whole.
	var figs []experiments.Figure
	if len(customSchemes) > 0 {
		figs = append(figs, experiments.Figure{Title: "Custom scheme comparison (slowdown vs baseline)", Schemes: customSchemes})
	}
	for _, f := range experiments.SuiteFigures() {
		if *all || selected[f.Name] {
			figs = append(figs, f)
		}
	}
	results, err := experiments.NewPlan(cfg, figs...).Run(ctx)
	for _, r := range results {
		switch {
		case r.Complete:
		case errors.Is(err, context.Canceled):
			fmt.Println("[interrupted — printing partial results]")
		default:
			fmt.Fprintln(os.Stderr, "sgperf:", err)
			os.Exit(1)
		}
		r.Render(os.Stdout)
	}
	if cfg.Attrib {
		rep := attrib.NewReport()
		rep.AddStacksFromSnapshot(cfg.Telemetry.Snapshot())
		rep.WriteText(os.Stdout)
	}
}
