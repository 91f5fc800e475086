package ecc

import (
	"math/rand/v2"

	"safeguard/internal/bits"
)

// Fault-injection helpers used by the resiliency-matrix experiment (Table
// IV), the Row-Hammer experiments, and the test suite. Each helper corrupts
// a (stored line, metadata) pair the way the named DRAM fault mode would,
// for the module geometry (geometry.go) the scheme runs on.

// FlipDataBit flips one data bit of the stored line.
func FlipDataBit(line *bits.Line, bit int) {
	*line = line.FlipBit(bit)
}

// FlipMetaBit flips one metadata bit.
func FlipMetaBit(meta *uint64, bit int) {
	*meta ^= 1 << uint(bit)
}

// InjectWordFaultX8 corrupts the bits that chip `chip` (0..8) contributes to
// beat `beat` — the x8 "single word" chip-fault pattern, 8 bits in one
// 72-bit word. A random nonzero mask is applied.
func InjectWordFaultX8(line *bits.Line, meta *uint64, chip, beat int, rng *rand.Rand) {
	mask := uint8(1 + rng.Uint64()%255)
	if chip == x8ECCChip {
		*meta ^= uint64(mask) << (8 * uint(beat))
		return
	}
	*line = withX8ChipByte(*line, chip, beat, x8ChipByte(*line, chip, beat)^mask)
}

// InjectColumnFaultX8 corrupts pin `pin` (0..7) of chip `chip` (0..8) in
// every beat — the vertical pattern of Figure 4: one bit in each of the 8
// words, all in the same bit position.
func InjectColumnFaultX8(line *bits.Line, meta *uint64, chip, pin int, rng *rand.Rand) {
	// Each beat's bit flips independently with probability 1/2 (a stuck
	// pin corrupts only beats whose true value differs from the stuck
	// value). Force at least one flip.
	flips := uint8(rng.Uint64() & 0xFF)
	if flips == 0 {
		flips = 1 << (rng.Uint64() % 8)
	}
	if chip == x8ECCChip {
		for b := 0; b < 8; b++ {
			if flips&(1<<uint(b)) != 0 {
				*meta ^= 1 << (8*uint(b) + uint(pin))
			}
		}
		return
	}
	k := x8Pin(chip, pin)
	*line = line.WithPinSymbol(k, line.PinSymbol(k)^flips)
}

// InjectChipFaultX8 corrupts arbitrary bits across chip `chip` (0..8): the
// row/bank/multi-bank pattern as seen by one line.
func InjectChipFaultX8(line *bits.Line, meta *uint64, chip int, rng *rand.Rand) {
	if chip == x8ECCChip {
		m := rng.Uint64()
		if m == 0 {
			m = 1
		}
		*meta ^= m
		return
	}
	changed := false
	for w := 0; w < bits.LineWords; w++ {
		mask := uint8(rng.Uint64() & 0xFF)
		if mask != 0 {
			changed = true
		}
		*line = withX8ChipByte(*line, chip, w, x8ChipByte(*line, chip, w)^mask)
	}
	if !changed {
		*line = withX8ChipByte(*line, chip, 0, x8ChipByte(*line, chip, 0)^1)
	}
}

// InjectChipFaultChipkillRS corrupts arbitrary bits across x4 chip `chip`
// (0..17) under the *conventional Chipkill* metadata layout: device 16+i
// holds check symbol i of every beat pair.
func InjectChipFaultChipkillRS(line *bits.Line, meta *uint64, chip int, rng *rand.Rand) {
	if chip < ChipkillDataChips {
		InjectChipFaultX4(line, meta, chip, rng)
		return
	}
	lane := chip - ChipkillDataChips // 0 or 1
	changed := false
	for p := 0; p < 4; p++ {
		mask := uint8(rng.Uint64())
		if mask != 0 {
			changed = true
		}
		*meta ^= uint64(mask) << checkSymbolBit(p, lane)
	}
	if !changed {
		*meta ^= 1 << checkSymbolBit(0, lane)
	}
}

// InjectChipFaultX4 corrupts arbitrary bits across x4 chip `chip` (0..17)
// under the SafeGuard-Chipkill metadata layout (MAC on device 16, parity on
// device 17).
func InjectChipFaultX4(line *bits.Line, meta *uint64, chip int, rng *rand.Rand) {
	switch chip {
	case macChip:
		m := rng.Uint64() & 0xFFFFFFFF
		if m == 0 {
			m = 1
		}
		*meta ^= m
	case parityChip:
		m := (rng.Uint64() & 0xFFFFFFFF) << 32
		if m == 0 {
			m = 1 << 32
		}
		*meta ^= m
	default:
		changed := false
		for w := 0; w < bits.LineWords; w++ {
			mask := uint8(rng.Uint64() & 0xF)
			if mask != 0 {
				changed = true
			}
			*line = withDataNibble(*line, chip, w, dataNibble(*line, chip, w)^mask)
		}
		if !changed {
			*line = withDataNibble(*line, chip, 0, dataNibble(*line, chip, 0)^1)
		}
	}
}

// InjectMultiChipFaultX4 corrupts n distinct x4 chips (the beyond-Chipkill
// pattern that RH breakthrough attacks or rank-level faults produce).
func InjectMultiChipFaultX4(line *bits.Line, meta *uint64, n int, rng *rand.Rand) {
	perm := rng.Perm(ChipkillChips)
	for _, chip := range perm[:n] {
		InjectChipFaultX4(line, meta, chip, rng)
	}
}

// InjectRandomFlips flips n distinct random data bits — the arbitrary
// bit-flip pattern of a Row-Hammer breakthrough attack.
func InjectRandomFlips(line *bits.Line, n int, rng *rand.Rand) {
	perm := rng.Perm(bits.LineBits)
	for _, b := range perm[:n] {
		*line = line.FlipBit(b)
	}
}
