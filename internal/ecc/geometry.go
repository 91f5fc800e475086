package ecc

import "safeguard/internal/bits"

// Device layout of one line on the two ECC DIMM organizations (Figures 3
// and 8). The line travels as eight 64-bit beats (beat w is line word w) and
// its 64 metadata bits ride on the extra devices. The chip-level codecs and
// the fault injectors in this package read the layout through these helpers.
//
// x8 DIMM (SECDED family), 9 devices: data chip c (0..7) supplies byte c of
// every beat, i.e. line bytes {8w + c}. Pin p of chip c is word bit 8c+p in
// every beat, i.e. line pin symbol 8c+p. Chip 8 is the ECC chip: it supplies
// metadata byte w in beat w, so its pin p carries meta bit 8w+p.
//
// x4 DIMM (Chipkill family), 18 devices: data chip c (0..15) supplies nibble
// c of every beat, i.e. line nibbles {16w + c}; beats 2p and 2p+1 together
// form chip c's 8-bit symbol p. Devices 16 and 17 hold the metadata:
//   - SafeGuard-Chipkill: device 16 the MAC in meta bits 0..31, device 17
//     the chip-wise parity in bits 32..63;
//   - conventional Chipkill: check symbol i of beat pair p sits on device
//     16+i in meta bits [16p+8i, 16p+8i+8).
const (
	// x8DataChips is the number of x8 data devices.
	x8DataChips = 8
	// x8ECCChip is the x8 device holding the metadata.
	x8ECCChip = x8DataChips
	// ChipkillDataChips is the number of x4 data devices.
	ChipkillDataChips = 16
	// ChipkillChips is the total device count including the two check chips.
	ChipkillChips = 18
	// macChip and parityChip are SafeGuard-Chipkill's metadata devices.
	macChip    = ChipkillDataChips
	parityChip = ChipkillDataChips + 1
)

// x8ChipByte returns the byte x8 data chip c supplies in beat w.
func x8ChipByte(l bits.Line, c, w int) uint8 { return l.Byte(8*w + c) }

// withX8ChipByte replaces the byte x8 data chip c supplies in beat w.
func withX8ChipByte(l bits.Line, c, w int, v uint8) bits.Line {
	return l.WithByte(8*w+c, v)
}

// x8Pin returns the line pin symbol of pin p of x8 data chip c.
func x8Pin(c, p int) int { return 8*c + p }

// dataNibble returns the nibble x4 data chip c supplies in beat w.
func dataNibble(l bits.Line, c, w int) uint8 { return l.Nibble(16*w + c) }

// withDataNibble replaces the nibble x4 data chip c supplies in beat w.
func withDataNibble(l bits.Line, c, w int, v uint8) bits.Line {
	return l.WithNibble(16*w+c, v)
}

// chipSymbol builds x4 data chip c's 8-bit symbol for beat pair p (beats
// 2p and 2p+1).
func chipSymbol(l bits.Line, c, p int) uint8 {
	return dataNibble(l, c, 2*p) | dataNibble(l, c, 2*p+1)<<4
}

func withChipSymbol(l bits.Line, c, p int, v uint8) bits.Line {
	l = withDataNibble(l, c, 2*p, v&0xF)
	return withDataNibble(l, c, 2*p+1, v>>4)
}

// checkSymbolBit returns the first meta bit of conventional Chipkill's check
// symbol i (device 16+i) for beat pair p.
func checkSymbolBit(p, i int) uint { return 16*uint(p) + 8*uint(i) }
