package ecc

import (
	"safeguard/internal/bits"
	"safeguard/internal/mac"
)

// SynergyStyleMAC models the Synergy organization of Section VI-A: an x8
// ECC DIMM whose ninth chip holds a 64-bit per-line MAC, with a 64-bit
// chip-wise parity stored in a *different* location of data memory (12.5%
// storage overhead). Reads are free of extra accesses (the MAC travels with
// the line); writes require a second access to update the parity — the
// traffic the memory controller charges for. Correction of a failed chip
// searches the nine chip hypotheses (8 data + MAC), reconstructing each
// from the remote parity under MAC verification, like SafeGuard-Chipkill
// but with byte symbols and a full-width MAC.
type SynergyStyleMAC struct {
	keyed *mac.Keyed
	// parityRegion is the separate memory region holding per-line parity.
	parityRegion map[uint64]uint64
	lastBadChip  int
}

// synergyChips is the 8 data devices plus the MAC device (the x8 ECC chip).
const synergyChips = x8ECCChip + 1

// NewSynergyStyleMAC builds the Synergy-style organization.
func NewSynergyStyleMAC(keyed *mac.Keyed) *SynergyStyleMAC {
	return &SynergyStyleMAC{keyed: keyed, parityRegion: make(map[uint64]uint64), lastBadChip: -1}
}

// Name implements Codec.
func (s *SynergyStyleMAC) Name() string { return "Synergy-style MAC" }

// MetaBits implements Codec: the ECC chip carries the 64-bit MAC.
func (s *SynergyStyleMAC) MetaBits() int { return 64 }

// ExtraDataBits implements Codec: 64-bit parity per line in data memory.
func (s *SynergyStyleMAC) ExtraDataBits() int { return 64 }

// synergyParity computes the chip-wise parity byte per beat over the 8 data
// chips and the MAC chip.
func synergyParity(line bits.Line, mac64 uint64) uint64 {
	var par uint64
	for w := 0; w < bits.LineWords; w++ {
		var b uint8
		for c := 0; c < x8DataChips; c++ {
			b ^= x8ChipByte(line, c, w)
		}
		b ^= uint8(mac64 >> (8 * uint(w)))
		par |= uint64(b) << (8 * uint(w))
	}
	return par
}

// Encode stores the parity in the separate region and returns the MAC as
// the ECC-chip metadata.
func (s *SynergyStyleMAC) Encode(line bits.Line, addr uint64) uint64 {
	m := s.keyed.MAC64(line, addr)
	s.parityRegion[addr] = synergyParity(line, m)
	return m
}

// reconstruct rebuilds chip c (a data chip or the MAC chip x8ECCChip) from
// the remote parity.
func (s *SynergyStyleMAC) reconstruct(stored bits.Line, storedMAC, parity uint64, chip int) (bits.Line, uint64) {
	if chip == x8ECCChip {
		var newMAC uint64
		for w := 0; w < bits.LineWords; w++ {
			b := uint8(parity >> (8 * uint(w)))
			for c := 0; c < x8DataChips; c++ {
				b ^= x8ChipByte(stored, c, w)
			}
			newMAC |= uint64(b) << (8 * uint(w))
		}
		return stored, newMAC
	}
	line := stored
	for w := 0; w < bits.LineWords; w++ {
		b := uint8(parity >> (8 * uint(w)))
		b ^= uint8(storedMAC >> (8 * uint(w)))
		for c := 0; c < x8DataChips; c++ {
			if c != chip {
				b ^= x8ChipByte(stored, c, w)
			}
		}
		line = withX8ChipByte(line, chip, w, b)
	}
	return line, storedMAC
}

// Decode verifies the MAC and, on mismatch, searches the nine chip
// hypotheses against the remote parity.
func (s *SynergyStyleMAC) Decode(stored bits.Line, meta uint64, addr uint64) Result {
	res := Result{}
	res.MACChecks++
	if s.keyed.MAC64(stored, addr) == meta {
		res.Line = stored
		res.Status = OK
		return res
	}
	res.FaultyMACChecks++

	parity := s.parityRegion[addr]
	order := make([]int, 0, synergyChips)
	if s.lastBadChip >= 0 {
		order = append(order, s.lastBadChip)
	}
	for c := 0; c < synergyChips; c++ {
		if c != s.lastBadChip {
			order = append(order, c)
		}
	}
	for _, chip := range order {
		cand, candMAC := s.reconstruct(stored, meta, parity, chip)
		if cand == stored && candMAC == meta {
			continue
		}
		res.MACChecks++
		if s.keyed.MAC64(cand, addr) == candMAC {
			s.lastBadChip = chip
			res.Line = cand
			res.Status = Corrected
			res.CorrectedBits = max(countDiff(stored, cand), 1)
			return res
		}
		res.FaultyMACChecks++
	}
	res.Status = DUE
	return res
}
