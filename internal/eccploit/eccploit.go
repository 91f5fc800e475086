// Package eccploit models the ECCploit attack of Cojocar et al. (S&P 2019),
// Case-3 of the SafeGuard paper's breakthrough studies: ECC memory was
// assumed to blunt Row-Hammer, but error *correction* takes observably
// longer than a fault-free read. That timing side channel tells the
// attacker which words currently hold exactly one (corrected) flip, letting
// them escalate bit-flips step by step — each step individually corrected —
// until a word holds more flips than SECDED can handle and the consumption
// is silent.
//
// The model drives a rowhammer.Bank against a protection codec:
//
//   - the latency oracle is the codec's correction activity (a read that
//     repaired bits is the "slow read" a real attacker times);
//   - hammering escalates across refresh windows, flips persisting;
//   - the outcome is classified per scheme: under word-granularity SECDED
//     escalation ends in silent corruption; under SafeGuard the same
//     escalation ends in a DUE — the timing channel still exists
//     (Section VII-D) but it can no longer be ridden to silent corruption.
package eccploit

import (
	"fmt"

	"safeguard/internal/bits"
	"safeguard/internal/ecc"
	"safeguard/internal/payload"
	"safeguard/internal/rowhammer"
)

// Config parameterizes an attack run.
type Config struct {
	// Bank configures the DRAM substrate; dense vulnerable cells model
	// the attacker's templated physical pages.
	Bank rowhammer.Config
	// Victim is the row whose lines the attacker targets.
	Victim int
	// MaxWindows bounds the escalation.
	MaxWindows int
}

// DefaultConfig returns an attack setup matching ECCploit's conditions:
// templated pages dense with weak cells, escalated one refresh window at a
// time.
func DefaultConfig() Config {
	bank := rowhammer.DefaultConfig()
	bank.Rows = 4096
	bank.LinesPerRow = 8
	bank.VulnerableCellsPerRow = 192
	bank.FlipsPerCrossing = 2
	return Config{Bank: bank, Victim: 2000, MaxWindows: 60}
}

// Outcome reports one attack run.
type Outcome struct {
	Scheme string
	// SilentAtWindow is the escalation window at which corrupted data was
	// first consumed silently (0 if never) — the attack's success.
	SilentAtWindow int
	// FirstDUEWindow is when the scheme first raised a detected
	// uncorrectable error (0 if never) — the defender's signal.
	FirstDUEWindow int
	// OracleCorrections counts slow (correcting) reads the attacker
	// observed before any DUE: the timing-channel information that guides
	// the escalation.
	OracleCorrections int
	// WindowsRun is the total escalation length.
	WindowsRun int
}

// Succeeded reports whether the attack reached silent corruption.
func (o Outcome) Succeeded() bool { return o.SilentAtWindow > 0 }

func (o Outcome) String() string {
	return fmt.Sprintf("%-28s silent@%d DUE@%d oracle-corrections=%d windows=%d",
		o.Scheme, o.SilentAtWindow, o.FirstDUEWindow, o.OracleCorrections, o.WindowsRun)
}

// Run executes the escalation against the codec. The attacker hammers the
// victim's neighbours past the threshold once per window, then reads every
// line, timing each read: corrections (slow reads) confirm progress; the
// attack continues until silent corruption, the window budget, or — under a
// strong detector — the defender's DUE response would stop it (we keep
// going to the budget to measure whether silence is *ever* achievable).
func Run(cfg Config, codec ecc.Codec) Outcome {
	bank := rowhammer.NewBank(cfg.Bank)
	out := Outcome{Scheme: codec.Name()}

	// The attacker's templated placement: metadata snapshotted from the
	// golden content, as the memory controller wrote it.
	metas := make([]uint64, cfg.Bank.LinesPerRow)
	for line := 0; line < cfg.Bank.LinesPerRow; line++ {
		addr := lineAddr(cfg, line)
		metas[line] = codec.Encode(bank.GoldenLine(cfg.Victim, line), addr)
	}

	if cfg.MaxWindows < 1 {
		return out
	}
	// One escalation step per window: enough hammering for one more flip
	// batch, then probe every line with the timing oracle.
	perWindow := cfg.Bank.Threshold + 8
	acts := 0
	payload.DoubleSided(cfg.Victim, cfg.MaxWindows*perWindow).Walk(func(s payload.Step) bool {
		bank.Activate(s.Row)
		if acts++; acts%perWindow != 0 {
			return true
		}
		window := acts / perWindow
		out.WindowsRun = window
		for line := 0; line < cfg.Bank.LinesPerRow; line++ {
			addr := lineAddr(cfg, line)
			stored := bank.ReadLine(cfg.Victim, line)
			res := codec.Decode(stored, metas[line], addr)
			golden := bank.GoldenLine(cfg.Victim, line)
			switch {
			case res.Status == ecc.DUE:
				if out.FirstDUEWindow == 0 {
					out.FirstDUEWindow = window
				}
			case res.Line != golden:
				if out.SilentAtWindow == 0 {
					out.SilentAtWindow = window
				}
			case res.Status == ecc.Corrected:
				if out.FirstDUEWindow == 0 {
					out.OracleCorrections++
				}
			}
		}
		if out.SilentAtWindow != 0 {
			return false
		}
		// End of refresh window: disturbance clears, flips persist —
		// exactly the persistence ECCploit escalates on.
		bank.RefreshWindow()
		return true
	})
	return out
}

// lineAddr derives the physical line address of the victim row's lines.
func lineAddr(cfg Config, line int) uint64 {
	return uint64(cfg.Victim*cfg.Bank.LinesPerRow+line) * bits.LineBytes
}

// Compare runs the same escalation against SECDED and SafeGuard, the
// paper's Case-3 conclusion in one call.
func Compare(cfg Config, secded, safeguard ecc.Codec) (Outcome, Outcome) {
	return Run(cfg, secded), Run(cfg, safeguard)
}
