// Package workload generates the synthetic instruction traces that stand in
// for the paper's SPEC CPU2017 rate SimPoints (see DESIGN.md for the
// substitution rationale). Each named workload is a deterministic stream of
// instructions whose memory behaviour is calibrated along the axes that
// determine the paper's performance results:
//
//   - memory intensity (misses per kilo-instruction), set by the fraction
//     of loads that touch DRAM-resident footprints;
//   - stream locality (prefetch friendliness and DRAM row-buffer hits),
//     set by the sequential-walk fraction — the bwaves/lbm/fotonik3d axis;
//   - pointer-chasing (loads serialized on the previous load's data) —
//     the latency-sensitivity axis that makes omnetpp the paper's worst
//     case under added MAC latency;
//   - write intensity (dirty-line writeback traffic) — the axis that the
//     Synergy-style parity write taxes.
//
// Loads split four ways: Stream (sequential 8-byte walk), Hot (random over
// a cache-resident set), Chase (dependent, random over a DRAM-sized set),
// and Cold (independent, random over the same DRAM-sized set).
package workload

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
)

// Instr is one trace entry.
type Instr struct {
	// IsLoad / IsStore classify memory instructions; both false means a
	// non-memory instruction.
	IsLoad  bool
	IsStore bool
	// Addr is the byte address of memory instructions.
	Addr uint64
	// DependsOnLoad makes this load's address depend on the previous
	// load's data (pointer chasing): it cannot issue until that load
	// completes.
	DependsOnLoad bool
}

// Params calibrates one synthetic workload.
type Params struct {
	Name string
	// LoadFrac and StoreFrac are the fractions of instructions that are
	// loads and stores.
	LoadFrac  float64
	StoreFrac float64
	// StreamFrac of loads walk sequentially (8-byte stride).
	StreamFrac float64
	// ChaseFrac of loads are pointer chases over the cold working set.
	ChaseFrac float64
	// ColdFrac of loads are independent random accesses over the cold
	// working set. The remainder of loads hit a small hot set.
	ColdFrac float64
	// StreamWS / ColdWS / HotWS / StoreWS size the footprints in cache
	// lines (per workload copy).
	StreamWS uint64
	ColdWS   uint64
	HotWS    uint64
	StoreWS  uint64
}

// SPEC2017Rate lists the synthetic stand-ins for the paper's workloads,
// calibrated so memory intensity, stream locality, chase sensitivity and
// write traffic follow the published characterizations qualitatively:
// mcf/bwaves/lbm/fotonik3d are memory-bound, omnetpp is the
// latency-critical pointer chaser, leela/exchange2 are cache-resident, lbm
// is the writeback-heavy stencil.
var SPEC2017Rate = []Params{
	{Name: "perlbench", LoadFrac: 0.25, StoreFrac: 0.12, StreamFrac: 0.80, ChaseFrac: 0.010, ColdFrac: 0.000,
		StreamWS: 1 << 13, ColdWS: 1 << 20, HotWS: 1 << 10, StoreWS: 1 << 11},
	{Name: "gcc", LoadFrac: 0.26, StoreFrac: 0.13, StreamFrac: 0.70, ChaseFrac: 0.010, ColdFrac: 0.006,
		StreamWS: 1 << 13, ColdWS: 1 << 20, HotWS: 1 << 10, StoreWS: 1 << 12},
	{Name: "mcf", LoadFrac: 0.31, StoreFrac: 0.09, StreamFrac: 0.20, ChaseFrac: 0.030, ColdFrac: 0.028,
		StreamWS: 1 << 12, ColdWS: 1 << 21, HotWS: 1 << 11, StoreWS: 1 << 13},
	{Name: "omnetpp", LoadFrac: 0.29, StoreFrac: 0.16, StreamFrac: 0.10, ChaseFrac: 0.024, ColdFrac: 0.004,
		StreamWS: 1 << 11, ColdWS: 1 << 20, HotWS: 1 << 11, StoreWS: 1 << 12},
	{Name: "xalancbmk", LoadFrac: 0.30, StoreFrac: 0.09, StreamFrac: 0.70, ChaseFrac: 0.008, ColdFrac: 0.002,
		StreamWS: 1 << 12, ColdWS: 1 << 20, HotWS: 1 << 10, StoreWS: 1 << 11},
	{Name: "x264", LoadFrac: 0.28, StoreFrac: 0.12, StreamFrac: 0.80, ChaseFrac: 0.000, ColdFrac: 0.005,
		StreamWS: 1 << 13, ColdWS: 1 << 19, HotWS: 1 << 10, StoreWS: 1 << 12},
	{Name: "deepsjeng", LoadFrac: 0.23, StoreFrac: 0.09, StreamFrac: 0.55, ChaseFrac: 0.002, ColdFrac: 0.004,
		StreamWS: 1 << 11, ColdWS: 1 << 19, HotWS: 1 << 10, StoreWS: 1 << 10},
	{Name: "leela", LoadFrac: 0.21, StoreFrac: 0.07, StreamFrac: 0.60, ChaseFrac: 0.001, ColdFrac: 0.001,
		StreamWS: 1 << 10, ColdWS: 1 << 18, HotWS: 1 << 9, StoreWS: 1 << 9},
	{Name: "exchange2", LoadFrac: 0.18, StoreFrac: 0.08, StreamFrac: 0.70, ChaseFrac: 0.000, ColdFrac: 0.0003,
		StreamWS: 1 << 9, ColdWS: 1 << 18, HotWS: 1 << 9, StoreWS: 1 << 8},
	{Name: "xz", LoadFrac: 0.22, StoreFrac: 0.08, StreamFrac: 0.50, ChaseFrac: 0.006, ColdFrac: 0.007,
		StreamWS: 1 << 13, ColdWS: 1 << 20, HotWS: 1 << 10, StoreWS: 1 << 12},
	{Name: "bwaves", LoadFrac: 0.35, StoreFrac: 0.08, StreamFrac: 0.25, ChaseFrac: 0.000, ColdFrac: 0.005,
		StreamWS: 1 << 20, ColdWS: 1 << 20, HotWS: 1 << 10, StoreWS: 1 << 13},
	{Name: "cactuBSSN", LoadFrac: 0.32, StoreFrac: 0.13, StreamFrac: 0.08, ChaseFrac: 0.002, ColdFrac: 0.003,
		StreamWS: 1 << 20, ColdWS: 1 << 20, HotWS: 1 << 10, StoreWS: 1 << 13},
	{Name: "lbm", LoadFrac: 0.27, StoreFrac: 0.21, StreamFrac: 0.45, ChaseFrac: 0.000, ColdFrac: 0.000,
		StreamWS: 1 << 20, ColdWS: 1 << 20, HotWS: 1 << 10, StoreWS: 1 << 19},
	{Name: "wrf", LoadFrac: 0.28, StoreFrac: 0.10, StreamFrac: 0.12, ChaseFrac: 0.002, ColdFrac: 0.002,
		StreamWS: 1 << 20, ColdWS: 1 << 20, HotWS: 1 << 10, StoreWS: 1 << 12},
	{Name: "fotonik3d", LoadFrac: 0.33, StoreFrac: 0.10, StreamFrac: 0.25, ChaseFrac: 0.000, ColdFrac: 0.002,
		StreamWS: 1 << 20, ColdWS: 1 << 20, HotWS: 1 << 10, StoreWS: 1 << 13},
}

// ByName returns the named workload parameters.
func ByName(name string) (Params, error) {
	for _, p := range SPEC2017Rate {
		if p.Name == name {
			return p, nil
		}
	}
	return Params{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Names lists the workload names in table order.
func Names() []string {
	out := make([]string, len(SPEC2017Rate))
	for i, p := range SPEC2017Rate {
		out[i] = p.Name
	}
	return out
}

// Generator produces the deterministic instruction stream of one workload
// copy. Each of the paper's four rate copies uses a distinct copy index so
// its address space and random stream differ.
type Generator struct {
	p Params
	// src is the generator's random stream. Draws call it directly,
	// reproducing rand.Rand's Float64 and Uint64N draw for draw without
	// the Source interface call: a Float64 compared against a fraction is
	// its 53 random bits compared against the fraction's cut (below), and
	// uint64n is Uint64N.
	src *rand.PCG
	// The class cuts of Next and load, one per fraction (or running sum
	// of fractions) they compare a draw against.
	loadCut, storeCut, streamCut, chaseCut, coldCut uint64
	// base places this copy's footprint in physical memory.
	base uint64
	// streamPos / storePos walk the sequential regions in 8-byte words.
	streamPos uint64
	storePos  uint64
}

const (
	lineBytes = 64
	wordBytes = 8
	// copyStride separates the footprints of workload copies: 3.5GB slots
	// keep four copies plus their region offsets inside 16GB.
	copyStride = uint64(3584) << 20
	// Region offsets within a copy's slot.
	coldOffset  = uint64(1) << 30
	storeOffset = uint64(2) << 30
	hotOffset   = uint64(3) << 30
)

// NewGenerator builds the stream for one copy (0..3) of a workload. Each
// copy starts its sequential walks at a random phase so the four rate
// copies do not march through DRAM banks in lock-step.
func NewGenerator(p Params, copyIdx int, seed uint64) *Generator {
	src := rand.NewPCG(seed, uint64(copyIdx)*0x9E3779B97F4A7C15+uint64(copyIdx)+1)
	g := &Generator{
		p:         p,
		src:       src,
		loadCut:   cut(p.LoadFrac),
		storeCut:  cut(p.LoadFrac + p.StoreFrac),
		streamCut: cut(p.StreamFrac),
		chaseCut:  cut(p.StreamFrac + p.ChaseFrac),
		coldCut:   cut(p.StreamFrac + p.ChaseFrac + p.ColdFrac),
		base:      uint64(copyIdx) * copyStride,
	}
	g.streamPos = g.uint64n(p.StreamWS * (lineBytes / wordBytes))
	g.storePos = g.uint64n(p.StoreWS * (lineBytes / wordBytes))
	return g
}

// bits53 draws what rand.Rand.Float64 scales into [0, 1): the low 53
// bits of one PCG output.
func (g *Generator) bits53() uint64 {
	return g.src.Uint64() & (1<<53 - 1)
}

// cut converts the test r < f on a Float64 draw r = x/2^53 into the
// integer test x < cut(f). Scaling by 2^53 is exact, and for an integer
// x, x < F holds exactly when x < ceil(F); the cut saturates at 2^53
// (every draw passes) and at 0 (none does, NaN included).
func cut(f float64) uint64 {
	t := math.Ceil(f * (1 << 53))
	switch {
	case !(t > 0):
		return 0
	case t >= 1<<53:
		return 1 << 53
	}
	return uint64(t)
}

// uint64n is rand.Rand.Uint64N on the generator's PCG (64-bit path): a
// mask for powers of two, otherwise Lemire's multiply with rejection,
// which consumes exactly the draws rand.Rand does.
func (g *Generator) uint64n(n uint64) uint64 {
	if n == 0 {
		panic("workload: uint64n(0)")
	}
	if n&(n-1) == 0 {
		return g.src.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(g.src.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(g.src.Uint64(), n)
		}
	}
	return hi
}

// Next returns the next instruction.
func (g *Generator) Next() Instr {
	x := g.bits53()
	switch {
	case x < g.loadCut:
		return g.load()
	case x < g.storeCut:
		return Instr{IsStore: true, Addr: g.store()}
	default:
		return Instr{}
	}
}

func (g *Generator) load() Instr {
	x := g.bits53()
	switch {
	case x < g.streamCut:
		// Sequential 8-byte walk: a new cache line every 8 loads. An
		// occasional skip models loop boundaries and keeps concurrent
		// copies' streams from staying phase-locked in the DRAM banks.
		g.streamPos++
		if g.uint64n(128) == 0 {
			g.streamPos += 8 * (1 + g.uint64n(4))
		}
		if g.streamPos >= g.p.StreamWS*(lineBytes/wordBytes) {
			g.streamPos = 0
		}
		return Instr{IsLoad: true, Addr: g.base + g.streamPos*wordBytes}
	case x < g.chaseCut:
		addr := g.base + coldOffset + g.uint64n(g.p.ColdWS)*lineBytes
		return Instr{IsLoad: true, Addr: addr, DependsOnLoad: true}
	case x < g.coldCut:
		addr := g.base + coldOffset + g.uint64n(g.p.ColdWS)*lineBytes
		return Instr{IsLoad: true, Addr: addr}
	default:
		addr := g.base + hotOffset + g.uint64n(g.p.HotWS*(lineBytes/wordBytes))*wordBytes
		return Instr{IsLoad: true, Addr: addr}
	}
}

func (g *Generator) store() uint64 {
	// Sequential store walk: streaming writes that dirty whole lines, the
	// writeback-heavy pattern of stencil codes like lbm.
	g.storePos++
	if g.storePos >= g.p.StoreWS*(lineBytes/wordBytes) {
		g.storePos = 0
	}
	return g.base + storeOffset + g.storePos*wordBytes
}
