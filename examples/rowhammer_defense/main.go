// Row-Hammer defense in depth: run the published breakthrough attacks
// (TRRespass against TRR, Half-Double against PARA/Graphene/TRR) on a bank
// model, show the mitigations failing exactly the way Section II-E of the
// paper describes, then show SafeGuard converting the resulting bit-flips
// into detected uncorrectable errors.
package main

import (
	"context"
	"fmt"

	"safeguard"
)

// attack runs a bank-model attack; the example's programs are fixed and
// valid, so an error is a bug.
func attack(bank *safeguard.Bank, mit safeguard.Mitigation, p *safeguard.AttackProgram) safeguard.AttackResult {
	res, err := safeguard.RunAttack(bank, mit, p)
	if err != nil {
		panic(err)
	}
	return res
}

func main() {
	cfg := safeguard.DefaultRHConfig()
	cfg.Rows = 8192
	cfg.Seed = 2022
	const victim = 4000

	fmt.Println("=== Phase 1: classic attacks are stopped by deployed mitigations ===")
	classic := []struct {
		mit func() safeguard.Mitigation
	}{
		{func() safeguard.Mitigation { return safeguard.NewPARA(cfg.Threshold, 1) }},
		{func() safeguard.Mitigation { return safeguard.NewTRR(4) }},
		{func() safeguard.Mitigation { return safeguard.NewGraphene(cfg.Threshold) }},
	}
	for _, c := range classic {
		bank := safeguard.NewBank(cfg)
		mit := c.mit()
		res := attack(bank, mit, safeguard.DoubleSided(victim, safeguard.ActsPerWindow))
		note := "mitigation held"
		if res.TotalFlips > 0 {
			// PARA is probabilistic: a ~e^-10 per-window tail can leak a
			// few flips into the aggressors' outer neighbours even when
			// the targeted victim survives.
			note = fmt.Sprintf("targeted victim held; %d stray flips from the probabilistic tail", res.TotalFlips)
		}
		fmt.Printf("  double-sided vs %-9s: %d flips in the victim row (%s)\n",
			mit.Name(), res.FlipsByRow[victim], note)
	}

	fmt.Println("\n=== Phase 2: breakthrough patterns defeat the same mitigations ===")
	type study struct {
		name string
		mit  safeguard.Mitigation
		prog *safeguard.AttackProgram
	}
	const acts = 2 * safeguard.ActsPerWindow // two refresh windows
	studies := []study{
		{"TRRespass vs TRR", safeguard.NewTRR(4), safeguard.ManySided(victim, 12, 6000, acts)},
		{"Half-Double vs PARA", safeguard.NewPARA(cfg.Threshold, 1), safeguard.HalfDouble(victim, 0, acts)},
		{"Half-Double vs Graphene", safeguard.NewGraphene(cfg.Threshold), safeguard.HalfDouble(victim, 680, acts)},
		{"Half-Double vs TRR", safeguard.NewTRR(4), safeguard.HalfDouble(victim, 1130, acts)},
	}

	banks := make([]*safeguard.Bank, 0, len(studies))
	for _, st := range studies {
		bank := safeguard.NewBank(cfg)
		res := attack(bank, st.mit, st.prog)
		fmt.Printf("  %-24s: %d flips across %d victim rows (%d mitigation refreshes issued)\n",
			st.name, res.TotalFlips, len(res.FlipsByRow), res.MitigationRefreshes)
		banks = append(banks, bank)
	}

	fmt.Println("\n=== Phase 3: SafeGuard turns the breakthrough flips into DUEs ===")
	keyed := safeguard.NewMAC([16]byte{0xAA, 0x55, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	for i, st := range studies {
		secded := safeguard.EvaluateDetection(banks[i], safeguard.NewSECDED())
		sg := safeguard.EvaluateDetection(banks[i], safeguard.NewSafeGuardSECDED(keyed))
		fmt.Printf("  %-24s SECDED:    %s\n", st.name, secded)
		fmt.Printf("  %-24s SafeGuard: %s\n", "", sg)
		if sg.Silent != 0 {
			panic("SafeGuard must never deliver corrupted data silently")
		}
	}
	fmt.Println("\nEvery SafeGuard line reads SILENT=0: the attack is detected, not consumed.")

	fmt.Println("\n=== Phase 4: the same fight through the cycle-level controller ===")
	fmt.Println("Mitigations resolved by registry name run as controller plugins; their")
	fmt.Println("victim refreshes are VRR commands paying real bank timing (tRAS+tRP).")
	hammer := safeguard.DoubleSided(victim, 30_000)
	for _, name := range safeguard.MitigationNames() {
		mcCfg := safeguard.ProgramRunConfig{
			Bank: safeguard.RHConfig{
				Rows: 8192, Threshold: 1000, LinesPerRow: 16,
				VulnerableCellsPerRow: 64, FlipsPerCrossing: 8, Seed: 2022,
			},
			Mitigation: name,
			Seed:       2022,
			MaxCycles:  20_000_000,
		}
		res, err := safeguard.RunProgram(context.Background(), mcCfg, hammer)
		if err != nil {
			panic(err)
		}
		note := ""
		if res.Stalled {
			note = "  [attacker stalled by ACT throttling]"
		}
		fmt.Printf("  %-12s: %5d flips, %5d VRRs, %8d cycles%s\n",
			name, res.TotalFlips, res.MCStats.VRRs, res.Cycles, note)
	}
}
