package payload

import (
	"fmt"
	"testing"

	"safeguard/internal/memctrl"
	"safeguard/internal/rowhammer"
)

func TestRunAttackRejections(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cases := map[string]*Program{
		"invalid program": {Name: "bad"},
		"NOP": {Name: "idle", Body: []Instr{
			Loop{Count: windows(1), Body: []Instr{Act{Row: 9}}}, Nop{Cycles: 10},
		}},
		"partial window":   DoubleSided(1000, windows(1)-1),
		"window and a bit": DoubleSided(1000, windows(1)+2),
		"row outside bank": DoubleSided(cfg.Rows-1, windows(1)),
	}
	for name, p := range cases {
		b := rowhammer.NewBank(cfg)
		if _, err := RunAttack(b, nil, p); err == nil {
			t.Errorf("%s: RunAttack accepted", name)
		}
		if b.Activations != 0 {
			t.Errorf("%s: rejected program still ran %d ACTs", name, b.Activations)
		}
	}
}

// TestFlipsMonotoneInThreshold is a metamorphic check of the bank model
// under every mitigation: with the mitigation's own threshold fixed, its
// decisions do not depend on the bank, so lowering the bank's
// RH-threshold can only add flips, never remove them.
func TestFlipsMonotoneInThreshold(t *testing.T) {
	t.Parallel()
	const mitThreshold = 1000
	thresholds := []int{4800, 1500, 500, 100} // falling
	programs := []*Program{
		DoubleSided(4000, windows(1)),
		HalfDouble(4000, 680, windows(1)),
	}
	for _, mit := range memctrl.MitigationNames() {
		for _, prog := range programs {
			mit, prog := mit, prog
			t.Run(mit+"/"+prog.Name, func(t *testing.T) {
				t.Parallel()
				prev, trail := -1, ""
				for _, th := range thresholds {
					cfg := rowhammer.DefaultConfig()
					cfg.Rows = 8192
					cfg.Seed = 5
					cfg.Threshold = th
					plug, err := memctrl.NewMitigationPlugin(mit, mitThreshold, 5)
					if err != nil {
						t.Fatal(err)
					}
					res, err := RunAttack(rowhammer.NewBank(cfg), plug, prog)
					if err != nil {
						t.Fatal(err)
					}
					trail += fmt.Sprintf(" %d@%d", res.TotalFlips, th)
					if res.TotalFlips < prev {
						t.Fatalf("flips fell as the threshold fell:%s", trail)
					}
					prev = res.TotalFlips
				}
				if prev == 0 {
					t.Fatalf("no flips even at the lowest threshold; the check is vacuous:%s", trail)
				}
			})
		}
	}
}
