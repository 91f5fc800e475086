package rowhammer

import (
	"fmt"

	"safeguard/internal/bits"
	"safeguard/internal/ecc"
)

// ThresholdEntry is one row of the paper's Table I.
type ThresholdEntry struct {
	Generation string
	Threshold  int
	Year       int
}

// ThresholdHistory is Table I: the RH-Threshold per DRAM generation,
// falling ~30x between 2014 and 2020.
var ThresholdHistory = []ThresholdEntry{
	{"DDR3 (old)", 139_000, 2014},
	{"DDR3 (new)", 22_400, 2020},
	{"DDR4 (old)", 17_500, 2020},
	{"DDR4 (new)", 10_000, 2020},
	{"LPDDR4 (old)", 16_800, 2020},
	{"LPDDR4 (new)", 4_800, 2020},
}

// DetectionOutcome classifies what a protection scheme did with the
// attack's flipped lines.
type DetectionOutcome struct {
	Scheme string
	// LinesAttacked is how many distinct lines had flips.
	LinesAttacked int
	// Corrected lines were repaired transparently (flip count within the
	// code's strength).
	Corrected int
	// Detected lines raised a DUE: the paper's conversion of a security
	// risk into a reliability event.
	Detected int
	// Silent lines delivered corrupted data without any signal — the
	// security failure SafeGuard eliminates.
	Silent int
}

func (o DetectionOutcome) String() string {
	return fmt.Sprintf("%-28s lines=%3d corrected=%3d detected(DUE)=%3d SILENT=%d",
		o.Scheme, o.LinesAttacked, o.Corrected, o.Detected, o.Silent)
}

// EvaluateDetection replays the attack's damage against a protection
// scheme: each flipped line is decoded from its pre-attack metadata, and
// the outcome is classified as corrected, detected (DUE), or silent
// corruption.
func EvaluateDetection(b *Bank, codec ecc.Codec) DetectionOutcome {
	out := DetectionOutcome{Scheme: codec.Name()}
	type key struct{ row, line int }
	seen := make(map[key]bool)
	for _, f := range b.Flips() {
		k := key{f.Row, f.Line}
		if seen[k] {
			continue
		}
		seen[k] = true
		out.LinesAttacked++
		golden := b.GoldenLine(f.Row, f.Line)
		addr := uint64(f.Row*b.cfg.LinesPerRow+f.Line) * bits.LineBytes
		meta := codec.Encode(golden, addr)
		stored := b.ReadLine(f.Row, f.Line)
		res := codec.Decode(stored, meta, addr)
		switch {
		case res.Status == ecc.DUE:
			out.Detected++
		case res.Line == golden:
			out.Corrected++
		default:
			out.Silent++
		}
	}
	return out
}
