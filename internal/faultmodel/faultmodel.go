// Package faultmodel provides the DRAM fault taxonomy and field failure
// rates the SafeGuard paper evaluates reliability against (Table III,
// Section III-B), plus geometric fault-region descriptions and Poisson
// arrival sampling for Monte-Carlo lifetime simulation.
//
// The taxonomy and rates come from Sridharan & Liberty's field study ("A
// study of DRAM failures in the field", SC'12), the same source as the
// paper. Rates are per device (chip), in FIT (failures per billion device
// hours), split into transient and permanent components.
package faultmodel

import (
	"fmt"
	"math"
)

// Mode is a DRAM chip failure mode.
type Mode int

const (
	// SingleBit: one cell.
	SingleBit Mode = iota
	// SingleColumn: one bit-line — a fixed column position across all rows
	// of one bank (the pin/column fault of Figure 4).
	SingleColumn
	// SingleWord: the bits one chip contributes to a single beat of a
	// single row (one row, one beat-aligned column group).
	SingleWord
	// SingleRow: one whole row of one bank.
	SingleRow
	// SingleBank: one whole bank.
	SingleBank
	// MultiBank: several banks of one chip; modeled as the whole chip.
	MultiBank
	// MultiRank: the same chip position across all ranks (e.g. shared
	// data-strobe faults); modeled as that chip in every rank.
	MultiRank
	numModes = iota
)

// Modes lists every failure mode in Table III order.
var Modes = []Mode{SingleBit, SingleColumn, SingleWord, SingleRow, SingleBank, MultiBank, MultiRank}

func (m Mode) String() string {
	switch m {
	case SingleBit:
		return "single-bit"
	case SingleColumn:
		return "single-column"
	case SingleWord:
		return "single-word"
	case SingleRow:
		return "single-row"
	case SingleBank:
		return "single-bank"
	case MultiBank:
		return "multi-bank"
	case MultiRank:
		return "multi-rank"
	default:
		return fmt.Sprintf("faultmodel.Mode(%d)", int(m))
	}
}

// Rate is a per-device failure rate in FIT, split by persistence.
type Rate struct {
	Transient float64
	Permanent float64
}

// Total returns the combined FIT rate.
func (r Rate) Total() float64 { return r.Transient + r.Permanent }

// SridharanFITRates is Table III of the paper: failures per billion device
// hours, per DRAM chip, from the SC'12 field study.
var SridharanFITRates = map[Mode]Rate{
	SingleBit:    {Transient: 14.2, Permanent: 18.6},
	SingleColumn: {Transient: 1.4, Permanent: 5.6},
	SingleWord:   {Transient: 1.4, Permanent: 0.3},
	SingleRow:    {Transient: 0.2, Permanent: 8.2},
	SingleBank:   {Transient: 0.8, Permanent: 10},
	MultiBank:    {Transient: 0.3, Permanent: 1.4},
	MultiRank:    {Transient: 0.9, Permanent: 2.8},
}

// TotalFIT returns the summed per-device FIT over all modes. It sums in
// Modes order, so the float total does not depend on map iteration order.
func TotalFIT(rates map[Mode]Rate) float64 {
	var t float64
	for _, m := range Modes {
		t += rates[m].Total()
	}
	return t
}

// ChipGeometry describes one DRAM device's internal organization.
type ChipGeometry struct {
	// Banks per chip.
	Banks int
	// Rows per bank.
	Rows int
	// Cols is bits per row (per chip).
	Cols int
	// Width is the DQ width: bits per beat (4 for x4, 8 for x8).
	Width int
}

// ModuleGeometry describes a memory module for reliability simulation.
type ModuleGeometry struct {
	// Ranks per module.
	Ranks int
	// ChipsPerRank including ECC/check devices.
	ChipsPerRank int
	Chip         ChipGeometry
}

// Devices returns the total chip count of the module.
func (g ModuleGeometry) Devices() int { return g.Ranks * g.ChipsPerRank }

// X8SECDED16GB is the paper's SECDED target: a 16GB single-channel module
// of x8 devices — 2 ranks x 9 chips (8 data + 1 ECC), 8Gb per chip.
var X8SECDED16GB = ModuleGeometry{
	Ranks:        2,
	ChipsPerRank: 9,
	Chip:         ChipGeometry{Banks: 16, Rows: 65536, Cols: 8192, Width: 8},
}

// X4Chipkill16GB is the paper's Chipkill target: 16GB of x4 devices —
// 2 ranks x 18 chips (16 data + 2 check), 4Gb per chip.
var X4Chipkill16GB = ModuleGeometry{
	Ranks:        2,
	ChipsPerRank: 18,
	Chip:         ChipGeometry{Banks: 16, Rows: 65536, Cols: 4096, Width: 4},
}

// Fault is a concrete fault instance within a module.
type Fault struct {
	Mode      Mode
	Transient bool
	// Hours since deployment at which the fault arises.
	Hours float64
	// Rank of the affected chip; -1 for MultiRank (all ranks).
	Rank int
	// Chip index within the rank.
	Chip int
	// Bank within the chip; -1 when the fault spans all banks.
	Bank int
	// Row within the bank; -1 when the fault spans all rows.
	Row int
	// Col is the bit-column within the row; for SingleWord it is the
	// first column of the beat-aligned group; -1 when all columns.
	Col int
}

// SpansAllBanks reports whether the fault covers every bank of its chip.
func (f Fault) SpansAllBanks() bool { return f.Bank < 0 }

// SpansAllRows reports whether the fault covers every row of its bank(s).
func (f Fault) SpansAllRows() bool { return f.Row < 0 }

// SpansAllCols reports whether the fault covers every column.
func (f Fault) SpansAllCols() bool { return f.Col < 0 }

// Sampler draws fault arrivals for one module lifetime. Everything a draw
// depends on besides the rng — the rates, FIT scale, geometry and
// deployment hours — is fixed at construction into a per-mode plan, so a
// Sampler is immutable and safe for concurrent use.
type Sampler struct {
	geom  ModuleGeometry
	hours float64
	// plan[:n] holds the precomputed Poisson parameters of every mode
	// that draws, in Table III order. A mode whose mean arrival count λ
	// is not positive draws nothing, not even the Poisson variate, and
	// has no entry.
	plan [numModes]modePlan
	n    int
}

// modePlan is one drawing mode's share of the per-study sampling plan.
type modePlan struct {
	mode Mode
	// total and transient are the mode's per-device FIT: Rate.Total()
	// and Rate.Transient.
	total, transient float64
	// expNegLambda is exp(-λ), the inversion threshold poisson stops at.
	expNegLambda float64
	// zeroMax is the largest 53-bit draw for which poisson's first
	// uniform already stops at zero faults: x<<11>>11 <= zeroMax exactly
	// when Float64() <= expNegLambda, since both sides scale by 2^53
	// exactly.
	zeroMax uint64
}

// NewSampler builds a sampler for a module deployed `hours` operating
// hours, with the given rates and a FIT multiplier (1.0 for Table III as
// published).
func NewSampler(geom ModuleGeometry, rates map[Mode]Rate, fitScale, hours float64) *Sampler {
	s := &Sampler{geom: geom, hours: hours}
	devices := geom.Devices()
	for _, mode := range Modes {
		rate := rates[mode]
		lambdaPerChip := rate.Total() * 1e-9 * hours * fitScale
		// MultiRank faults are module-level events tied to a chip
		// *position*; sample per position rather than per chip.
		population := devices
		if mode == MultiRank {
			population = geom.ChipsPerRank
		}
		lambda := lambdaPerChip * float64(population)
		if !(lambda > 0) {
			continue
		}
		e := math.Exp(-lambda)
		s.plan[s.n] = modePlan{mode: mode, total: rate.Total(), transient: rate.Transient,
			expNegLambda: e, zeroMax: uint64(e * (1 << 53))}
		s.n++
	}
	return s
}

// Geometry returns the module geometry the sampler draws for.
func (s *Sampler) Geometry() ModuleGeometry { return s.geom }

// poisson draws a Poisson variate whose mean λ satisfies expNegLambda =
// exp(-λ) (inversion by sequential search; λ here is always small, well
// under 1).
func poisson(rng *PCG, expNegLambda float64) int {
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= expNegLambda {
			return k
		}
		k++
	}
}

// SampleLifetime draws every fault one module experiences over the
// sampler's deployment hours and appends them to dst, ordered by arrival
// time. It returns the extended slice; passing a reused buffer's dst[:0]
// makes the draw allocation-free once the buffer has grown.
//
// Most modules draw no fault, and then each drawing mode consumes exactly
// one uniform. The fast path reads those first uniforms straight off the
// current state with precomputed jumps; if every one stops poisson at
// zero, the state jumps past them all at once. Otherwise the ordinary
// sequential draw resumes at the first faulty mode, from the state just
// before it, so the stream and every variate match a purely sequential
// draw.
func (s *Sampler) SampleLifetime(rng *PCG, dst []Fault) []Fault {
	plan := s.plan[:s.n]
	first := 0
	for first < len(plan) && rng.peek(first)<<11>>11 <= plan[first].zeroMax {
		first++
	}
	if first > 0 {
		rng.advance(first)
	}
	if first == len(plan) {
		return dst
	}
	start := len(dst)
	for i := first; i < len(plan); i++ {
		mp := &plan[i]
		n := poisson(rng, mp.expNegLambda)
		for ; n > 0; n-- {
			dst = append(dst, Fault{})
			f := &dst[len(dst)-1]
			s.place(rng, mp.mode, f)
			f.Hours = rng.Float64() * s.hours
			f.Transient = rng.Float64()*mp.total < mp.transient
		}
	}
	sortByTime(dst[start:])
	return dst
}

// place fills f with a fault of the given mode at uniform coordinates.
func (s *Sampler) place(rng *PCG, mode Mode, f *Fault) {
	g := &s.geom
	f.Mode = mode
	f.Rank = rng.IntN(g.Ranks)
	f.Chip = rng.IntN(g.ChipsPerRank)
	f.Bank = rng.IntN(g.Chip.Banks)
	f.Row = rng.IntN(g.Chip.Rows)
	f.Col = rng.IntN(g.Chip.Cols)
	switch mode {
	case SingleBit:
		// fully specified
	case SingleColumn:
		f.Row = -1
	case SingleWord:
		f.Col = (f.Col / g.Chip.Width) * g.Chip.Width
	case SingleRow:
		f.Col = -1
	case SingleBank:
		f.Row, f.Col = -1, -1
	case MultiBank:
		f.Bank, f.Row, f.Col = -1, -1, -1
	case MultiRank:
		f.Rank, f.Bank, f.Row, f.Col = -1, -1, -1, -1
	}
}

func sortByTime(fs []Fault) {
	// Insertion sort: lifetimes rarely exceed a handful of faults.
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].Hours < fs[j-1].Hours; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// HoursPerYear converts the paper's 7-year horizon.
const HoursPerYear = 24 * 365.25
