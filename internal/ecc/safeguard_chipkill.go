package ecc

import (
	"fmt"

	"safeguard/internal/bits"
	"safeguard/internal/mac"
)

// CorrectionPolicy selects how SafeGuard-Chipkill locates a failed chip
// (Section V of the paper).
type CorrectionPolicy int

const (
	// Iterative always starts with a MAC check on the raw data and then
	// walks every chip hypothesis (Figure 9a). Under a permanent chip
	// failure every access performs a MAC check on faulty data — the
	// MAC-32 escape vulnerability of Section V-C.
	Iterative CorrectionPolicy = iota
	// History starts the iteration at the chip that failed last time,
	// avoiding the iteration latency but still performing the vulnerable
	// first check on raw faulty data (Section V-C's "simple history-based
	// design").
	History
	// Eager skips the first MAC check when a failed chip is remembered:
	// it reconstructs that chip's data first and MAC-checks only the
	// repaired line (Figure 9b). On fault-free data the reconstruction is
	// the identity, so reliability is unaffected. This is the paper's
	// default for SafeGuard with Chipkill.
	Eager
)

func (p CorrectionPolicy) String() string {
	switch p {
	case Iterative:
		return "iterative"
	case History:
		return "history"
	case Eager:
		return "eager"
	default:
		return "unknown"
	}
}

// SpareLines is the number of controller spare-line entries provisioned per
// footnote 2 of the paper ("a few (4-5) spare lines").
const SpareLines = 4

// pingPongLimit bounds how many times the remembered faulty chip may change
// before SafeGuard declares a DUE ("declare a DUE after several rounds of
// ping-pong between faulty chips", Section V-D).
const pingPongLimit = 8

// SafeGuardChipkill is the paper's x4 design (Figure 8b): data is stored in
// plain form, device 16 holds a 32-bit per-line MAC and device 17 the
// chip-wise parity of the other 17 devices. The MAC detects arbitrary
// failures; the parity corrects any single failed chip once the MAC
// identifies which reconstruction is consistent.
type SafeGuardChipkill struct {
	keyed    *mac.Keyed
	macWidth int
	policy   CorrectionPolicy

	lastBadChip int
	pingPong    int

	// Spare lines (footnote 2): corrected single-bit-fault lines are
	// copied into controller SRAM so repeated accesses skip iterative
	// correction. FIFO replacement over SpareLines entries.
	spareAddrs []uint64
	spares     map[uint64]bits.Line
}

// NewSafeGuardChipkill builds the paper's default configuration: 32-bit MAC
// with Eager Correction and spare lines.
func NewSafeGuardChipkill(keyed *mac.Keyed) *SafeGuardChipkill {
	c, err := NewSafeGuardChipkillPolicy(keyed, Eager, mac.WidthChipkill)
	if err != nil {
		// WidthChipkill is a package constant inside the valid range.
		panic(err)
	}
	return c
}

// NewSafeGuardChipkillPolicy builds the scheme with an explicit correction
// policy and MAC width (the ablations of Sections V-C/V-D use Iterative and
// History; the MAC-escape experiments use narrow widths). The width comes
// from experiment configs and command-line flags, so a bad value is an
// error, not a panic.
func NewSafeGuardChipkillPolicy(keyed *mac.Keyed, policy CorrectionPolicy, macWidth int) (*SafeGuardChipkill, error) {
	if macWidth <= 0 || macWidth > 32 {
		return nil, fmt.Errorf("ecc: SafeGuard-Chipkill MAC width must be 1..32 (one x4 chip), got %d", macWidth)
	}
	return &SafeGuardChipkill{
		keyed:       keyed,
		macWidth:    macWidth,
		policy:      policy,
		lastBadChip: -1,
		spares:      make(map[uint64]bits.Line, SpareLines),
	}, nil
}

// Name implements Codec.
func (s *SafeGuardChipkill) Name() string {
	if s.policy == Eager {
		return "SafeGuard-Chipkill"
	}
	return "SafeGuard-Chipkill (" + s.policy.String() + ")"
}

// MetaBits implements Codec: MAC chip + parity chip, 32 bits each.
func (s *SafeGuardChipkill) MetaBits() int { return 64 }

// ExtraDataBits implements Codec.
func (s *SafeGuardChipkill) ExtraDataBits() int { return 0 }

// Policy returns the correction policy in use.
func (s *SafeGuardChipkill) Policy() CorrectionPolicy { return s.policy }

// parity32 computes the chip-wise parity over the 16 data chips and the MAC
// chip: parity nibble for beat w is the XOR of the 17 other devices'
// nibbles in that beat.
func parity32(line bits.Line, mac32 uint64) uint64 {
	var par uint64
	for w := 0; w < bits.LineWords; w++ {
		var nib uint8
		for c := 0; c < ChipkillDataChips; c++ {
			nib ^= dataNibble(line, c, w)
		}
		nib ^= uint8(mac32>>(4*uint(w))) & 0xF
		par |= uint64(nib) << (4 * uint(w))
	}
	return par
}

// Encode stores MAC-32 in the low half of meta (device 16) and the chip-wise
// parity in the high half (device 17).
func (s *SafeGuardChipkill) Encode(line bits.Line, addr uint64) uint64 {
	m := s.keyed.MAC(line, addr, s.macWidth)
	return m | parity32(line, m)<<32
}

func (s *SafeGuardChipkill) macMatches(line bits.Line, addr, storedMAC uint64) bool {
	return s.keyed.MAC(line, addr, s.macWidth) == storedMAC
}

// reconstructChip rebuilds device chip's per-beat nibbles from the stored
// parity and the other devices, returning the repaired line and MAC value.
// Reconstructing the MAC chip (16) repairs the stored MAC instead of the
// data; the parity chip (17) never needs reconstruction for delivery.
func reconstructChip(stored bits.Line, storedMAC, storedParity uint64, chip int) (bits.Line, uint64) {
	if chip == macChip {
		var newMAC uint64
		for w := 0; w < bits.LineWords; w++ {
			nib := uint8(storedParity>>(4*uint(w))) & 0xF
			for c := 0; c < ChipkillDataChips; c++ {
				nib ^= dataNibble(stored, c, w)
			}
			newMAC |= uint64(nib) << (4 * uint(w))
		}
		return stored, newMAC
	}
	line := stored
	for w := 0; w < bits.LineWords; w++ {
		nib := uint8(storedParity>>(4*uint(w))) & 0xF
		nib ^= uint8(storedMAC>>(4*uint(w))) & 0xF
		for c := 0; c < ChipkillDataChips; c++ {
			if c != chip {
				nib ^= dataNibble(stored, c, w)
			}
		}
		line = withDataNibble(line, chip, w, nib)
	}
	return line, storedMAC
}

// Decode implements the read path of Figure 9 under the configured policy.
func (s *SafeGuardChipkill) Decode(stored bits.Line, meta uint64, addr uint64) Result {
	res := Result{}
	storedMAC := meta & 0xFFFFFFFF & ((1 << uint(s.macWidth)) - 1)
	storedParity := meta >> 32

	// Footnote-2 spare lines: a line with a known single-bit permanent
	// fault is serviced straight from controller SRAM.
	if spare, ok := s.spares[addr]; ok {
		res.Line = spare
		res.Status = Corrected
		res.UsedSpare = true
		res.CorrectedBits = countDiff(stored, spare)
		return res
	}

	// Eager Correction (Figure 9b): with a remembered faulty chip, skip
	// the vulnerable first check and verify only the repaired data.
	if s.policy == Eager && s.lastBadChip >= 0 {
		cand, candMAC := reconstructChip(stored, storedMAC, storedParity, s.lastBadChip)
		res.MACChecks++
		if s.macMatches(cand, addr, candMAC) {
			if cand == stored && candMAC == storedMAC {
				// Fault no longer present.
				s.lastBadChip = -1
				s.pingPong = 0
				res.Line = cand
				res.Status = OK
				return res
			}
			res.Line = cand
			res.Status = Corrected
			res.CorrectedBits = max(countDiff(stored, cand), 1)
			s.maybeSpare(addr, stored, cand)
			return res
		}
		res.FaultyMACChecks++
		// Different chip at fault: fall back to iterative search below.
	}

	// First MAC check on raw data (Iterative and History policies always
	// do this; Eager reaches here only without a remembered chip or after
	// an eager miss).
	res.MACChecks++
	if s.macMatches(stored, addr, storedMAC) {
		res.Line = stored
		res.Status = OK
		// Clean reads reset the ping-pong tracker: scattered independent
		// faults separated by healthy traffic are normal, not the
		// interchangeably-failing-chips pathology of Section V-D.
		s.pingPong = 0
		return res
	}
	res.FaultyMACChecks++

	// Iterative correction (Figure 9a): hypothesize each chip failed,
	// repair from parity, verify with the MAC. History/Eager start from
	// the remembered chip; pure Iterative always searches from chip 0,
	// which is exactly why its latency (and faulty-data exposure) is so
	// much worse under a permanent failure of a high-numbered chip.
	searchFrom := s.lastBadChip
	if s.policy == Iterative {
		searchFrom = -1
	}
	for _, chip := range chipOrder(searchFrom) {
		cand, candMAC := reconstructChip(stored, storedMAC, storedParity, chip)
		if cand == stored && candMAC == storedMAC {
			continue
		}
		res.MACChecks++
		if s.macMatches(cand, addr, candMAC) {
			if s.lastBadChip >= 0 && s.lastBadChip != chip {
				s.pingPong++
				if s.pingPong > pingPongLimit {
					// Interchangeably failing chips: not a pattern
					// Chipkill repairs either; declare DUE.
					res.Status = DUE
					res.Line = bits.Line{}
					return res
				}
			}
			s.lastBadChip = chip
			res.Line = cand
			res.Status = Corrected
			res.CorrectedBits = max(countDiff(stored, cand), 1)
			s.maybeSpare(addr, stored, cand)
			return res
		}
		res.FaultyMACChecks++
	}

	res.Status = DUE
	return res
}

// maybeSpare copies a corrected line into the spare store when the repair
// was a single-bit fault (footnote 2's trigger condition).
func (s *SafeGuardChipkill) maybeSpare(addr uint64, stored, corrected bits.Line) {
	if countDiff(stored, corrected) != 1 {
		return
	}
	if _, ok := s.spares[addr]; ok {
		s.spares[addr] = corrected
		return
	}
	if len(s.spareAddrs) >= SpareLines {
		oldest := s.spareAddrs[0]
		s.spareAddrs = s.spareAddrs[1:]
		delete(s.spares, oldest)
	}
	s.spareAddrs = append(s.spareAddrs, addr)
	s.spares[addr] = corrected
}

// InvalidateSpare drops a spare entry (called on writes to the address).
func (s *SafeGuardChipkill) InvalidateSpare(addr uint64) {
	if _, ok := s.spares[addr]; !ok {
		return
	}
	delete(s.spares, addr)
	for i, a := range s.spareAddrs {
		if a == addr {
			s.spareAddrs = append(s.spareAddrs[:i], s.spareAddrs[i+1:]...)
			break
		}
	}
}

// chipOrder enumerates the 17 reconstruction hypotheses (16 data chips plus
// the MAC chip) with the remembered chip first.
func chipOrder(first int) []int {
	order := make([]int, 0, macChip+1)
	if first >= 0 && first <= macChip {
		order = append(order, first)
	}
	for c := 0; c <= macChip; c++ {
		if c != first {
			order = append(order, c)
		}
	}
	return order
}
