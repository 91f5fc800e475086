// Package rowhammer models DRAM activation-disturbance (Row-Hammer) at the
// bank level: per-row disturbance accumulation with a configurable
// RH-Threshold and blast radius, and what ECC makes of the resulting
// flips (EvaluateDetection).
//
// The attacks that motivate the SafeGuard paper — single-/double-sided
// hammering, TRRespass many-sided patterns, and Google's Half-Double
// (Figure 1b) — are payload programs, and the mitigations (PARA, TRR,
// Graphene, BlockHammer) are the memctrl plugins. payload.RunAttack
// drives both directly over a Bank, victim refreshes landing on it at
// once; payload.Run drives them through the cycle-level controller, where
// an ActivationTracer feeds the command stream into the bank model.
//
// The model is calibrated to reproduce the qualitative security facts the
// paper builds on rather than device physics:
//
//   - A victim row flips bits once the activations of its distance-1
//     neighbours since the victim's last refresh reach the RH-Threshold.
//   - Distance-2 coupling is ~512x weaker, so direct distance-2 hammering
//     cannot flip bits within one refresh window at realistic thresholds.
//   - A mitigation's victim refresh is itself a row activation, disturbing
//     *its* neighbours — the Half-Double lever: refreshes of the middle row
//     triggered by a heavily hammered far aggressor accumulate distance-1
//     disturbance on the row two away.
//   - Bit flips are data-dependent: only "true cells" currently storing a
//     charged value can flip, and each row has a fixed vulnerable-cell set.
package rowhammer

import (
	"fmt"
	"math/rand/v2"

	"safeguard/internal/bits"
)

// Disturbance weights, in units where the distance-1 weight is Weight1.
const (
	// Weight1 is the disturbance one activation adds to distance-1
	// neighbours.
	Weight1 = 512
	// Weight2 is the disturbance added at distance 2: 512x weaker, so
	// a pure distance-2 attack needs ~2.5M activations at a 4.8K
	// threshold — beyond one refresh window.
	Weight2 = 1
)

// Config parameterizes a bank model.
type Config struct {
	// Rows in the bank.
	Rows int
	// Threshold is the RH-Threshold: distance-1 activations needed to
	// flip bits in a victim (Table I values).
	Threshold int
	// LinesPerRow is the number of 64-byte lines per row (128 for the
	// paper's 8KB rows; tests may shrink it).
	LinesPerRow int
	// VulnerableCellsPerRow is how many cells of a row can flip; each
	// threshold crossing flips a batch of them (data permitting).
	VulnerableCellsPerRow int
	// FlipsPerCrossing bounds how many vulnerable cells flip each time a
	// victim's disturbance crosses another multiple of the threshold.
	FlipsPerCrossing int
	// Seed drives the deterministic vulnerable-cell placement and flip
	// sampling.
	Seed uint64
}

// DefaultConfig models one bank of the paper's DDR4 device at the
// LPDDR4-new threshold.
func DefaultConfig() Config {
	return Config{
		Rows:                  1 << 16,
		Threshold:             4800,
		LinesPerRow:           128,
		VulnerableCellsPerRow: 64,
		FlipsPerCrossing:      8,
	}
}

// Flip records one Row-Hammer bit flip.
type Flip struct {
	Row  int
	Line int // line index within the row
	Bit  int // bit index within the line
}

// Bank is one DRAM bank with disturbance tracking and data contents.
type Bank struct {
	cfg Config
	rng *rand.Rand

	// disturbance accumulates per-row in Weight1/Weight2 units since the
	// row's last refresh (explicit or mitigation-issued).
	disturbance []int64
	// crossings counts how many threshold multiples each row has already
	// flipped for, so continued hammering yields progressively more flips.
	crossings []int
	// data holds modified lines only; unmodified lines derive from
	// GoldenLine.
	data map[int]map[int]bits.Line

	// peakDist / peakRow track the highest disturbance any row has
	// reached at any point (refreshes clear disturbance, not the peak):
	// the synthesis searcher's fitness gradient when no flip lands.
	peakDist int64
	peakRow  int

	flips []Flip
	// Activations counts ACT commands (not mitigation refreshes).
	Activations int
	// MitigationRefreshes counts refreshes issued by the mitigation.
	MitigationRefreshes int
}

// Validate checks the configuration is usable. Attack runners taking
// configs from flags should Validate before NewBank, which panics.
func (c Config) Validate() error {
	if c.Rows <= 0 || c.Threshold <= 0 || c.LinesPerRow <= 0 {
		return fmt.Errorf("rowhammer: rows (%d), threshold (%d) and lines per row (%d) must be positive",
			c.Rows, c.Threshold, c.LinesPerRow)
	}
	return nil
}

// NewBank builds a bank.
func NewBank(cfg Config) *Bank {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Bank{
		cfg:         cfg,
		rng:         rand.New(rand.NewPCG(cfg.Seed, 0x5afe)),
		disturbance: make([]int64, cfg.Rows),
		crossings:   make([]int, cfg.Rows),
		data:        make(map[int]map[int]bits.Line),
	}
}

// Config returns the bank's configuration.
func (b *Bank) Config() Config { return b.cfg }

// GoldenLine is the deterministic original content of (row, line) before
// any Row-Hammer damage: a fixed pseudo-random pattern so detection
// experiments know the ground truth.
func (b *Bank) GoldenLine(row, line int) bits.Line {
	var l bits.Line
	x := uint64(row)*0x9E3779B97F4A7C15 + uint64(line)*0xBF58476D1CE4E5B9 + b.cfg.Seed
	for w := range l {
		// splitmix64 steps
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		l[w] = z ^ (z >> 31)
	}
	return l
}

// ReadLine returns the current (possibly flipped) content of (row, line).
func (b *Bank) ReadLine(row, line int) bits.Line {
	if rd, ok := b.data[row]; ok {
		if l, ok := rd[line]; ok {
			return l
		}
	}
	return b.GoldenLine(row, line)
}

// WriteLine stores new content (used by attack setups that place victim
// data). Writing restores full charge: the row's disturbance is reset.
func (b *Bank) WriteLine(row, line int, l bits.Line) {
	b.storeLine(row, line, l)
	b.disturbance[row] = 0
}

// Flips returns every flip recorded so far.
func (b *Bank) Flips() []Flip { return b.flips }

// FlipsInRow returns the flips affecting one row.
func (b *Bank) FlipsInRow(row int) []Flip {
	var out []Flip
	for _, f := range b.flips {
		if f.Row == row {
			out = append(out, f)
		}
	}
	return out
}

// Activate models one ACT to `row`: the row's own charge is restored and
// neighbours accumulate disturbance.
func (b *Bank) Activate(row int) {
	b.Activations++
	b.disturb(row)
}

// RefreshRow models a (mitigation-issued) refresh of `row`: internally a
// row activation, so it restores the row's charge and disturbs the row's
// own neighbours — the physical fact Half-Double exploits. A row outside
// the bank is ignored, and RefreshRow reports false.
func (b *Bank) RefreshRow(row int) bool {
	if row < 0 || row >= b.cfg.Rows {
		return false
	}
	b.MitigationRefreshes++
	b.disturb(row)
	return true
}

// disturb applies one activation of `row`: resets the row and accumulates
// weighted disturbance on distance-1 and distance-2 neighbours, flipping
// bits on threshold crossings.
func (b *Bank) disturb(row int) {
	b.disturbance[row] = 0
	b.crossings[row] = 0
	for _, d := range [...]struct{ off, w int }{
		{-1, Weight1}, {1, Weight1}, {-2, Weight2}, {2, Weight2},
	} {
		v := row + d.off
		if v < 0 || v >= b.cfg.Rows {
			continue
		}
		b.disturbance[v] += int64(d.w)
		if b.disturbance[v] > b.peakDist {
			b.peakDist, b.peakRow = b.disturbance[v], v
		}
		b.maybeFlip(v)
	}
}

// Peak returns the row holding the highest disturbance ever accumulated
// and that peak in activation-equivalents (Weight1 units). Unlike
// Disturbance it survives refreshes: it reports how close the bank ever
// came to a threshold crossing, which is the searcher's gradient signal
// on runs that flip nothing.
func (b *Bank) Peak() (row int, acts float64) {
	return b.peakRow, float64(b.peakDist) / Weight1
}

// maybeFlip flips a batch of vulnerable cells each time the victim's
// disturbance crosses another multiple of the threshold.
func (b *Bank) maybeFlip(victim int) {
	limit := int64(b.cfg.Threshold) * Weight1
	for b.disturbance[victim] >= limit*int64(b.crossings[victim]+1) {
		b.crossings[victim]++
		b.flipBatch(victim)
	}
}

// flipBatch flips up to FlipsPerCrossing vulnerable true-cells of the row.
func (b *Bank) flipBatch(victim int) {
	cells := b.vulnerableCells(victim)
	flipped := 0
	// Deterministic per-batch offset so successive crossings walk the
	// vulnerable set.
	start := (b.crossings[victim] - 1) * b.cfg.FlipsPerCrossing
	for i := 0; i < len(cells) && flipped < b.cfg.FlipsPerCrossing; i++ {
		cell := cells[(start+i)%len(cells)]
		line, bit := cell/bits.LineBits, cell%bits.LineBits
		cur := b.ReadLine(victim, line)
		// Data dependence: only a charged (1) true-cell leaks to 0.
		if cur.Bit(bit) == 0 {
			continue
		}
		b.storeLine(victim, line, cur.FlipBit(bit))
		b.flips = append(b.flips, Flip{Row: victim, Line: line, Bit: bit})
		flipped++
	}
}

func (b *Bank) storeLine(row, line int, l bits.Line) {
	rd, ok := b.data[row]
	if !ok {
		rd = make(map[int]bits.Line)
		b.data[row] = rd
	}
	rd[line] = l
}

// vulnerableCells returns the row's fixed set of weak cells (bit indices
// within the row), deterministically derived from the row id.
func (b *Bank) vulnerableCells(row int) []int {
	rng := rand.New(rand.NewPCG(b.cfg.Seed^0xC0FFEE, uint64(row)))
	total := b.cfg.LinesPerRow * bits.LineBits
	cells := make([]int, b.cfg.VulnerableCellsPerRow)
	for i := range cells {
		cells[i] = rng.IntN(total)
	}
	return cells
}

// RefreshWindow models the end of a 64ms auto-refresh period: every row is
// rewritten with its current (possibly corrupted) content, so accumulated
// disturbance clears but flips persist.
func (b *Bank) RefreshWindow() {
	for i := range b.disturbance {
		b.disturbance[i] = 0
		b.crossings[i] = 0
	}
}

// Disturbance exposes a row's accumulated disturbance in Weight1 units
// (activation-equivalents), for tests and reporting.
func (b *Bank) Disturbance(row int) float64 {
	return float64(b.disturbance[row]) / Weight1
}
