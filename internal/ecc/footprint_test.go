package ecc

import (
	"math/rand/v2"
	"testing"

	"safeguard/internal/bits"
)

// footprint is the set of (line, meta) bits one device fault may touch.
type footprint struct {
	line bits.Line
	meta uint64
}

// The footprints below are written against the bits.Line accessors from the
// DIMM organizations of Figures 3 and 8, independently of geometry.go, so
// the test checks the layout helpers instead of reusing them.

// x8ByteFootprint is byte c of each listed word.
func x8ByteFootprint(c int, words ...int) footprint {
	var f footprint
	for _, w := range words {
		f.line = f.line.WithByte(8*w+c, 0xFF)
	}
	return f
}

// x4NibbleFootprint is nibble c of every word.
func x4NibbleFootprint(c int) footprint {
	var f footprint
	for w := 0; w < bits.LineWords; w++ {
		f.line = f.line.WithNibble(16*w+c, 0xF)
	}
	return f
}

// metaBitsFootprint is meta bit off+stride*k for k in 0..n-1, each widened
// to a run of width bits.
func metaBitsFootprint(off, stride, n, width int) footprint {
	var f footprint
	for k := 0; k < n; k++ {
		f.meta |= (1<<uint(width) - 1) << uint(off+stride*k)
	}
	return f
}

var allWords = []int{0, 1, 2, 3, 4, 5, 6, 7}

// footprintCase is one injector over a (device, lane) grid; lane is the
// beat or pin for the x8 word and column faults and unused (0) otherwise.
type footprintCase struct {
	name    string
	devices int
	lanes   int
	inject  func(l *bits.Line, m *uint64, dev, lane int, rng *rand.Rand)
	want    func(dev, lane int) footprint
}

var footprintCases = []footprintCase{
	{
		name: "x8 word fault", devices: 9, lanes: 8,
		inject: InjectWordFaultX8,
		want: func(dev, beat int) footprint {
			if dev == 8 {
				return metaBitsFootprint(8*beat, 0, 1, 8)
			}
			return x8ByteFootprint(dev, beat)
		},
	},
	{
		name: "x8 column fault", devices: 9, lanes: 8,
		inject: InjectColumnFaultX8,
		want: func(dev, pin int) footprint {
			if dev == 8 {
				return metaBitsFootprint(pin, 8, 8, 1)
			}
			return footprint{line: bits.Line{}.WithPinSymbol(8*dev+pin, 0xFF)}
		},
	},
	{
		name: "x8 chip fault", devices: 9, lanes: 1,
		inject: func(l *bits.Line, m *uint64, dev, _ int, rng *rand.Rand) { InjectChipFaultX8(l, m, dev, rng) },
		want: func(dev, _ int) footprint {
			if dev == 8 {
				return metaBitsFootprint(0, 0, 1, 64)
			}
			return x8ByteFootprint(dev, allWords...)
		},
	},
	{
		name: "x4 chip fault (SafeGuard-Chipkill)", devices: 18, lanes: 1,
		inject: func(l *bits.Line, m *uint64, dev, _ int, rng *rand.Rand) { InjectChipFaultX4(l, m, dev, rng) },
		want: func(dev, _ int) footprint {
			switch dev {
			case 16:
				return metaBitsFootprint(0, 0, 1, 32)
			case 17:
				return metaBitsFootprint(32, 0, 1, 32)
			}
			return x4NibbleFootprint(dev)
		},
	},
	{
		name: "x4 chip fault (conventional Chipkill)", devices: 18, lanes: 1,
		inject: func(l *bits.Line, m *uint64, dev, _ int, rng *rand.Rand) { InjectChipFaultChipkillRS(l, m, dev, rng) },
		want: func(dev, _ int) footprint {
			if dev >= 16 {
				return metaBitsFootprint(8*(dev-16), 16, 4, 8)
			}
			return x4NibbleFootprint(dev)
		},
	},
}

// TestInjectorFootprints checks each injector against the device layout:
// over a seeded grid of lines, metadata words and devices, the XOR
// difference an injection leaves on (line, meta) is nonzero and confined to
// the faulted device's bits (a beat, a pin, or the whole device).
func TestInjectorFootprints(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(17, 17))
	for _, c := range footprintCases {
		for trial := 0; trial < 50; trial++ {
			line, meta := randLine(r), r.Uint64()
			for dev := 0; dev < c.devices; dev++ {
				for lane := 0; lane < c.lanes; lane++ {
					l, m := line, meta
					c.inject(&l, &m, dev, lane, r)
					dl, dm := l.XOR(line), m^meta
					if dl.IsZero() && dm == 0 {
						t.Fatalf("%s dev %d lane %d: no bit changed", c.name, dev, lane)
					}
					f := c.want(dev, lane)
					var out bits.Line
					for w := range dl {
						out[w] = dl[w] &^ f.line[w]
					}
					if !out.IsZero() || dm&^f.meta != 0 {
						t.Fatalf("%s dev %d lane %d: flips outside the device: line %v meta %#x",
							c.name, dev, lane, out, dm&^f.meta)
					}
				}
			}
		}
	}
}
