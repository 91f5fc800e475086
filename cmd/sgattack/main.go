// Command sgattack runs the Row-Hammer attack studies behind the paper's
// motivation (Section II-E, Figures 1 and 2):
//
//	sgattack -fig2        basic double-sided hammering on an unprotected bank
//	sgattack -breakthrough  TRRespass and Half-Double vs deployed mitigations,
//	                        plus detection outcomes under SECDED and SafeGuard
//	sgattack -table1      Table I: RH-Threshold per DRAM generation
//	sgattack -mc          attacks through the cycle-level memory controller,
//	                      with the mitigation running as a controller plugin
//	sgattack -respond     the full DUE response pipeline against a live
//	                      attack: retry -> scrub -> retire -> quarantine
//	sgattack -synth       synthesize attacks: evolve hammering payloads
//	                      (the payload DSL) against each mitigation and
//	                      report the cheapest defeating payload per cell
//	sgattack -all         everything
//
// Selections are mutually exclusive; -all runs everything. -mitigation
// names an in-controller defense from the registry (none, para, trr,
// graphene, blockhammer); unknown names exit with usage.
//
// -synth accepts -json (emit the canonical synth-matrix/1 JSON — the
// exact bytes an sgserve synth job stores), -baseline FILE (compare
// against a committed matrix and exit 1 on any security regression:
// a mitigation newly defeated or defeated at a cheaper budget), and
// -synth-mitigations a,b (sweep an explicit mitigation list instead of
// -mitigation / the whole registry).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"safeguard/internal/cliflags"
	"safeguard/internal/ecc"
	"safeguard/internal/eccploit"
	"safeguard/internal/experiments"
	"safeguard/internal/mac"
	"safeguard/internal/memctrl"
	"safeguard/internal/payload"
	"safeguard/internal/report"
	"safeguard/internal/resultcache"
	"safeguard/internal/rowhammer"
	"safeguard/internal/synth"
)

func main() {
	var (
		fig2       = flag.Bool("fig2", false, "run the Figure 2 demonstration")
		brk        = flag.Bool("breakthrough", false, "run the breakthrough case studies (Figure 1b/1c)")
		table1     = flag.Bool("table1", false, "print Table I")
		eccpl      = flag.Bool("eccploit", false, "run the ECCploit timing-channel escalation (Case-3)")
		blockhmr   = flag.Bool("blockhammer", false, "run the BlockHammer sizing/latency study (Section VIII)")
		mcMode     = flag.Bool("mc", false, "run attacks through the cycle-level controller (plugin mitigations)")
		respond    = flag.Bool("respond", false, "run the DUE response pipeline (retry/scrub/retire/quarantine) against a live attack")
		synthMode  = flag.Bool("synth", false, "synthesize attacks: evolve payloads against each mitigation")
		all        = flag.Bool("all", false, "run everything")
		seed       = flag.Uint64("seed", 7, "simulation seed")
		mitigation = flag.String("mitigation", "", "in-controller mitigation for -mc/-synth (default: sweep the registry)")

		jsonOut     = flag.Bool("json", false, "with -synth: emit the canonical matrix JSON instead of the table")
		baseline    = flag.String("baseline", "", "with -synth: compare against a committed matrix; exit 1 on regression")
		synthBudget = flag.Int("synth-budget", 3000, "with -synth: attacker activation budget per evaluation")
		synthGens   = flag.Int("synth-gens", 4, "with -synth: searcher generations per cell")
		synthPop    = flag.Int("synth-pop", 8, "with -synth: searcher population per generation")
		synthRows   = flag.Int("synth-rows", 1024, "with -synth: rows in the reduced bank (power of two)")
		synthThs    = flag.String("synth-thresholds", "600", "with -synth: comma-separated RH-threshold sweep")
		synthMits   = flag.String("synth-mitigations", "", "with -synth: comma-separated mitigation sweep (default: -mitigation, else the whole registry)")
	)
	tf := cliflags.Telemetry()
	flag.Parse()
	if err := cliflags.Exclusive(*all, map[string]bool{
		"fig2": *fig2, "breakthrough": *brk, "table1": *table1,
		"eccploit": *eccpl, "blockhammer": *blockhmr, "mc": *mcMode,
		"respond": *respond, "synth": *synthMode,
	}); err != nil {
		cliflags.Fail(err)
	}
	if (*jsonOut || *baseline != "" || *synthMits != "") && !*synthMode {
		cliflags.Fail(fmt.Errorf("-json, -baseline, and -synth-mitigations require -synth"))
	}
	if *synthMits != "" && *mitigation != "" {
		cliflags.Fail(fmt.Errorf("use -mitigation or -synth-mitigations, not both"))
	}
	if _, err := memctrl.NewMitigationPlugin(*mitigation, 4800, 1); err != nil {
		cliflags.Fail(err)
	}
	if *synthMits != "" {
		for _, m := range strings.Split(*synthMits, ",") {
			if _, err := memctrl.NewMitigationPlugin(strings.TrimSpace(m), 4800, 1); err != nil {
				cliflags.Fail(err)
			}
		}
	}
	if err := tf.Activate(); err != nil {
		cliflags.Fail(err)
	}
	defer tf.MustFinish()
	tf.SetTraceMeta("tool", "sgattack")
	tf.SetTraceMeta("seed", fmt.Sprint(*seed))
	if *mitigation != "" {
		tf.SetTraceMeta("mitigation", *mitigation)
	}

	// SIGINT cancels the controller-driven runs; partial results still print.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *table1 || *all {
		t := report.NewTable("Table I: Row-Hammer threshold over time (~30x reduction 2014-2020)",
			"DRAM generation", "RH-Threshold", "year")
		for _, e := range rowhammer.ThresholdHistory {
			t.AddRowStrings(e.Generation, fmt.Sprint(e.Threshold), fmt.Sprint(e.Year))
		}
		t.Render(os.Stdout)
		fmt.Println()
	}
	if *fig2 || *all {
		r := experiments.Figure2(*seed)
		fmt.Printf("Figure 2: double-sided hammering at RH-Threshold=%d\n", r.Threshold)
		fmt.Printf("  activations used: %d (≈ threshold: the two-sided pattern halves per-row work)\n", r.ActivationsUsed)
		fmt.Printf("  bit flips in the victim row: %d\n\n", r.FlipsInNeighbors)
	}
	if *eccpl || *all {
		cfg := eccploit.DefaultConfig()
		cfg.Bank.Seed = *seed
		var key [16]byte
		key[0] = byte(*seed)
		keyed := mac.NewKeyed(key)
		sec, sg := eccploit.Compare(cfg, ecc.NewSECDED(), ecc.NewSafeGuardSECDED(keyed))
		fmt.Println("Case-3 (ECCploit): escalation under a correction-latency oracle")
		fmt.Printf("  %s\n  %s\n", sec, sg)
		fmt.Println("  The oracle exists under both schemes (Section VII-D); only SECDED can be")
		fmt.Println("  ridden to silent corruption — SafeGuard converts the escalation to DUEs.")
		fmt.Println()
	}
	if *blockhmr || *all {
		cfg := rowhammer.DefaultConfig()
		cfg.Rows = 8192
		cfg.Seed = *seed
		hammer := payload.DoubleSided(4000, memctrl.ActsPerWindow)
		res, err := payload.RunAttack(rowhammer.NewBank(cfg), memctrl.NewBlockHammerPlugin(cfg.Threshold), hammer)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res2, err := payload.RunAttack(rowhammer.NewBank(cfg), memctrl.NewBlockHammerPlugin(3*cfg.Threshold), hammer)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("BlockHammer (Section VIII):")
		fmt.Printf("  sized for threshold %d: %d flips, %.1f%% of attack activations throttled\n",
			cfg.Threshold, res.TotalFlips, float64(res.Throttled)/float64(res.Windows*memctrl.ActsPerWindow)*100)
		fmt.Printf("  sized for threshold %d (an older module): %d flips — broken by the paper's threshold-dependence argument\n",
			3*cfg.Threshold, res2.TotalFlips)
		fmt.Println()
	}
	if *mcMode || *all {
		mits := memctrl.MitigationNames()
		if *mitigation != "" {
			mits = []string{*mitigation}
		}
		fmt.Println("Controller-driven attacks: double-sided hammering through the")
		fmt.Println("cycle-level DDR4 controller, mitigations running as plugins")
		fmt.Printf("(reduced bank: 8192 rows, threshold 1000, %s budget)\n", "60k accesses")
		hammer := payload.DoubleSided(4000, 60_000)
		for _, mit := range mits {
			cfg := payload.RunConfig{
				Bank: rowhammer.Config{
					Rows: 8192, Threshold: 1000, LinesPerRow: 16,
					VulnerableCellsPerRow: 64, FlipsPerCrossing: 8, Seed: *seed,
				},
				Mitigation: mit,
				Seed:       *seed,
				MaxCycles:  40_000_000,
			}
			res, err := payload.Run(ctx, cfg, hammer)
			if err != nil && errors.Is(err, context.Canceled) {
				fmt.Printf("  [interrupted] partial: %s\n", res)
				break
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			note := ""
			if res.Stalled {
				note = "  [attacker stalled by throttling]"
			}
			// Program ACTs are the attacker's accesses; the tracer counts
			// the ACT commands that reached the bank.
			fmt.Printf("  %-38s vs %-11s: %6d flips in %9d MC cycles (%d accesses, %d ACTs, %d VRRs)%s\n",
				res.Program, res.Mitigation, res.TotalFlips, res.Cycles, res.Activations,
				int(res.PluginStats["activation-tracer"]["acts"]), res.MCStats.VRRs, note)
		}
		fmt.Println("  VRRs are real commands here: each victim refresh pays tRAS+tRP in the bank.")
		fmt.Println()
	}
	if *respond || *all {
		runRespond(ctx, *seed, *mitigation, tf)
	}
	if *synthMode || *all {
		runSynth(ctx, synthOptions{
			seed: *seed, mitigation: *mitigation, mitigations: *synthMits,
			json: *jsonOut, baseline: *baseline,
			budget: *synthBudget, gens: *synthGens, pop: *synthPop,
			rows: *synthRows, thresholds: *synthThs,
		}, tf)
	}
	if *brk || *all {
		results := experiments.Figure1b(*seed)
		t := report.NewTable("Figure 1b/1c: breakthrough attacks vs mitigations, and what the protection schemes do with the flips",
			"attack", "mitigation", "flips", "dist-2 flips", "scheme", "corrected", "DUE", "SILENT")
		for _, r := range results {
			for i, d := range r.Detection {
				attack, mit, flips, d2 := "", "", "", ""
				if i == 0 {
					attack, mit = r.Attack.Program, r.Attack.Mitigation
					flips = fmt.Sprint(r.Attack.TotalFlips)
					d2 = fmt.Sprint(r.DistanceTwoFlips)
				}
				t.AddRowStrings(attack, mit, flips, d2, d.Scheme,
					fmt.Sprint(d.Corrected), fmt.Sprint(d.Detected), fmt.Sprint(d.Silent))
			}
		}
		t.Render(os.Stdout)
		fmt.Println("\n  SafeGuard rows must show SILENT=0: breakthrough bit-flips become")
		fmt.Println("  detected uncorrectable errors instead of silent corruption (Figure 1c).")
	}
}

// synthOptions carries the -synth flag set.
type synthOptions struct {
	seed              uint64
	mitigation        string
	mitigations       string // comma list; overrides mitigation
	json              bool
	baseline          string
	budget, gens, pop int
	rows              int
	thresholds        string
}

// runSynth executes the attack-synthesis sweep through the same
// resultcache request path sgserve jobs use, so the -json bytes here
// are the artifact bytes there. The table mode renders the matrix;
// -baseline then gates on CompareBaseline.
func runSynth(ctx context.Context, opt synthOptions, tf *cliflags.TelemetryFlags) {
	ths, err := parseThresholds(opt.thresholds)
	if err != nil {
		cliflags.Fail(err)
	}
	var mits []string
	switch {
	case opt.mitigations != "":
		for _, m := range strings.Split(opt.mitigations, ",") {
			mits = append(mits, strings.TrimSpace(m))
		}
	case opt.mitigation != "":
		mits = []string{opt.mitigation}
	}
	req := resultcache.Request{Kind: resultcache.KindSynth, Synth: &resultcache.SynthRequest{
		Bank: rowhammer.Config{
			Rows: opt.rows, Threshold: ths[0], LinesPerRow: 8,
			VulnerableCellsPerRow: 32, FlipsPerCrossing: 4, Seed: opt.seed,
		},
		Mitigations: mits,
		Thresholds:  ths,
		Seed:        opt.seed,
		Budget:      opt.budget,
		Generations: opt.gens,
		Population:  opt.pop,
	}}
	raw, err := req.Execute(ctx, tf.Registry)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Println("attack synthesis: [interrupted]")
			return
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m, err := synth.ParseMatrix(raw)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if opt.json {
		os.Stdout.Write(raw)
	} else {
		fmt.Print(m.Table())
	}
	if opt.baseline != "" {
		b, err := os.ReadFile(opt.baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		base, err := synth.ParseMatrix(b)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := synth.CompareBaseline(m, base); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "baseline %s holds: no mitigation defeated cheaper\n", opt.baseline)
	}
	if !opt.json {
		fmt.Println()
	}
}

// parseThresholds parses the comma-separated -synth-thresholds list.
func parseThresholds(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -synth-thresholds entry %q (want positive integers)", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// runRespond demonstrates the Section VII-A/B response pipeline end to
// end: the aggressor hammers two benign MAC-protected rows through the
// cycle-level controller, the response engine escalates each hard DUE
// through retry -> scrub -> retire -> quarantine, and the run ends with
// the aggressor's rows gated at the controller.
func runRespond(ctx context.Context, seed uint64, mitigation string, tf *cliflags.TelemetryFlags) {
	cfg := payload.ResponseAttackConfig{
		Bank: rowhammer.Config{
			Rows: 64, Threshold: 16, LinesPerRow: 2,
			VulnerableCellsPerRow: 16, FlipsPerCrossing: 4, Seed: seed,
		},
		Mitigation: mitigation,
		Seed:       seed,
		VictimRows: []int{8, 10},
		BenignTail: 16,
		SpareRows:  4,
		Telemetry:  tf.Registry,
		Trace:      tf.Tracer,
	}
	res, err := payload.RunResponseAttack(ctx, cfg, payload.DoubleSided(8, 40_000))
	if err != nil && errors.Is(err, context.Canceled) {
		fmt.Println("DUE response pipeline: [interrupted]")
		if res != nil {
			fmt.Printf("  partial: %s\n", res)
		}
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("DUE response pipeline against a live attack (reduced bank: 64 rows, threshold 16):")
	fmt.Printf("  %s\n", res)
	fmt.Printf("  escalation: %d retries, %d scrubs, %d retirements, quarantined=%v\n",
		res.EngineStats.Retries, res.EngineStats.Scrubs, res.EngineStats.Retires, res.Quarantined)
	kinds := ""
	for i, st := range res.Steps {
		if i > 0 {
			kinds += " "
		}
		kinds += st.Kind.String()
		if i == 11 && len(res.Steps) > 12 {
			kinds += fmt.Sprintf(" ... (+%d)", len(res.Steps)-12)
			break
		}
	}
	fmt.Printf("  trace: %s\n", kinds)
	fmt.Printf("  retired rows %v remapped to spares; aggressor rows %v gated at the controller\n",
		res.RetiredRows, res.GatedRows)
	fmt.Printf("  benign reads: %d bad during attack, %d after quarantine; avg latency %.1f -> %.1f cycles\n",
		res.BadReadsDuringAttack, res.BadReadsAfterQuarantine,
		res.BenignAvgLatencyAttack, res.BenignAvgLatencyTail)
	if res.PolicyQuarantined != nil {
		fmt.Printf("  OS policy (Section VII-B) quarantined co-resident process(es): %v\n", res.PolicyQuarantined)
	}
	if res.Analysis != nil {
		// -trace was given: the run analyzed its own event stream, so the
		// per-bank picture and incident timeline render right here.
		fmt.Println()
		res.Analysis.WriteText(os.Stdout)
	}
	fmt.Println()
}
