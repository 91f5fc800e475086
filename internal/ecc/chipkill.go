package ecc

import (
	xbits "math/bits"

	"safeguard/internal/bits"
	"safeguard/internal/gf"
	"safeguard/internal/rs"
)

// Chipkill is the conventional symbol-based SSC-DSD baseline. Pairs of
// beats are combined so each device contributes one 8-bit symbol to an
// RS(18,16) codeword over GF(256): 16 data symbols plus the 2 check symbols
// held by the two extra devices. The code corrects any single-symbol
// (single-chip) error per codeword; wider faults are detected or — beyond
// the code's guarantee — may miscorrect, the weakness ECCploit exploits.
type Chipkill struct {
	code *rs.Codec
}

// NewChipkill returns the conventional Chipkill codec.
func NewChipkill() *Chipkill {
	return &Chipkill{code: rs.New(gf.GF256, ChipkillChips, ChipkillDataChips)}
}

// Name implements Codec.
func (c *Chipkill) Name() string { return "Chipkill" }

// MetaBits implements Codec: 2 check chips x 32 bits.
func (c *Chipkill) MetaBits() int { return 64 }

// ExtraDataBits implements Codec.
func (c *Chipkill) ExtraDataBits() int { return 0 }

// Encode computes the four codewords' check symbols, placed by
// checkSymbolBit.
func (c *Chipkill) Encode(line bits.Line, addr uint64) uint64 {
	var meta uint64
	data := make([]uint8, ChipkillDataChips)
	for p := 0; p < 4; p++ {
		for ch := 0; ch < ChipkillDataChips; ch++ {
			data[ch] = chipSymbol(line, ch, p)
		}
		par := c.code.Encode(data)
		for i, sym := range par {
			meta |= uint64(sym) << checkSymbolBit(p, i)
		}
	}
	return meta
}

// Decode runs the four RS decodes. Any codeword flagged uncorrectable makes
// the line a DUE; single-chip errors are repaired.
func (c *Chipkill) Decode(stored bits.Line, meta uint64, addr uint64) Result {
	res := Result{Line: stored, Status: OK}
	cw := make([]uint8, ChipkillChips)
	for p := 0; p < 4; p++ {
		for ch := 0; ch < ChipkillDataChips; ch++ {
			cw[ch] = chipSymbol(stored, ch, p)
		}
		for i := range cw[ChipkillDataChips:] {
			cw[ChipkillDataChips+i] = uint8(meta >> checkSymbolBit(p, i))
		}
		st, _ := c.code.Decode(cw)
		switch st {
		case rs.Corrected:
			for ch := 0; ch < ChipkillDataChips; ch++ {
				old := chipSymbol(res.Line, ch, p)
				if cw[ch] != old {
					res.CorrectedBits += xbits.OnesCount8(cw[ch] ^ old)
					res.Line = withChipSymbol(res.Line, ch, p, cw[ch])
				}
			}
			if res.CorrectedBits == 0 {
				res.CorrectedBits = 1 // repair was in a check chip
			}
			if res.Status == OK {
				res.Status = Corrected
			}
		case rs.Detected:
			res.Status = DUE
		}
	}
	if res.Status == DUE {
		res.Line = bits.Line{}
	}
	return res
}
