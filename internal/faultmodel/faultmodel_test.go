package faultmodel

import (
	"math"
	"testing"
)

func TestTableIIIRates(t *testing.T) {
	t.Parallel()
	// Pin the exact Table III values the paper uses.
	cases := []struct {
		mode                 Mode
		transient, permanent float64
	}{
		{SingleBit, 14.2, 18.6},
		{SingleColumn, 1.4, 5.6},
		{SingleWord, 1.4, 0.3},
		{SingleRow, 0.2, 8.2},
		{SingleBank, 0.8, 10},
		{MultiBank, 0.3, 1.4},
		{MultiRank, 0.9, 2.8},
	}
	for _, c := range cases {
		r := SridharanFITRates[c.mode]
		if r.Transient != c.transient || r.Permanent != c.permanent {
			t.Fatalf("%v: got %+v", c.mode, r)
		}
	}
	if got := TotalFIT(SridharanFITRates); math.Abs(got-66.1) > 1e-9 {
		t.Fatalf("total FIT %.2f, want 66.1", got)
	}
}

// TotalFIT sums in Modes order, so Table III's float total is one exact
// value on every call; summing in map order gave either of two.
func TestTotalFITDeterministic(t *testing.T) {
	t.Parallel()
	const want = 0x4050866666666667 // 66.10000000000001
	for i := 0; i < 200; i++ {
		if got := math.Float64bits(TotalFIT(SridharanFITRates)); got != want {
			t.Fatalf("call %d: total FIT bits %#x (%v), want %#x", i, got, math.Float64frombits(got), uint64(want))
		}
	}
}

func TestModuleGeometries(t *testing.T) {
	t.Parallel()
	// 16GB x8: 2 ranks x (8 data + 1 ECC) chips of 8Gb.
	g := X8SECDED16GB
	if g.Devices() != 18 {
		t.Fatalf("x8 module devices = %d", g.Devices())
	}
	bitsPerChip := g.Chip.Banks * g.Chip.Rows * g.Chip.Cols
	if bitsPerChip != 8<<30 {
		t.Fatalf("x8 chip capacity = %d bits, want 8Gb", bitsPerChip)
	}
	// Data capacity: 8 data chips x 8Gb x 2 ranks = 16GB.
	if dataBytes := 8 * bitsPerChip / 8 * 2; dataBytes != 16<<30 {
		t.Fatalf("x8 module data capacity = %d", dataBytes)
	}

	// 16GB x4: 2 ranks x (16 data + 2 check) chips of 4Gb.
	g4 := X4Chipkill16GB
	if g4.Devices() != 36 {
		t.Fatalf("x4 module devices = %d", g4.Devices())
	}
	bitsPerChip4 := g4.Chip.Banks * g4.Chip.Rows * g4.Chip.Cols
	if bitsPerChip4 != 4<<30 {
		t.Fatalf("x4 chip capacity = %d bits, want 4Gb", bitsPerChip4)
	}
	if dataBytes := 16 * bitsPerChip4 / 8 * 2; dataBytes != 16<<30 {
		t.Fatalf("x4 module data capacity = %d", dataBytes)
	}
}

func TestPoissonMean(t *testing.T) {
	t.Parallel()
	rng := NewPCG(1, 1)
	for _, lambda := range []float64{0.01, 0.3, 2.0} {
		const n = 200000
		sum := 0
		for i := 0; i < n; i++ {
			sum += poisson(rng, math.Exp(-lambda))
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda) > 0.05*lambda+0.005 {
			t.Fatalf("lambda=%v: sample mean %v", lambda, mean)
		}
	}
}

func TestNonPositiveRateDrawsNothing(t *testing.T) {
	t.Parallel()
	// A mode whose λ is not positive (zero or negative rate, zero hours)
	// yields no faults and consumes no rng draw.
	rates := map[Mode]Rate{SingleBit: {Transient: -1}, SingleRow: {}}
	for _, s := range []*Sampler{
		NewSampler(X8SECDED16GB, rates, 1, 7*HoursPerYear),
		NewSampler(X8SECDED16GB, SridharanFITRates, 1, 0),
		NewSampler(X8SECDED16GB, SridharanFITRates, 0, 7*HoursPerYear),
	} {
		rng, ref := NewPCG(1, 1), NewPCG(1, 1)
		if faults := s.SampleLifetime(rng, nil); len(faults) != 0 {
			t.Fatalf("drew %d faults", len(faults))
		}
		if rng.Uint64() != ref.Uint64() {
			t.Fatal("a non-positive λ consumed rng draws")
		}
	}
}

func TestSampleLifetimeRate(t *testing.T) {
	t.Parallel()
	// Expected faults per module over 7 years: 66.1 FIT x 18 chips x
	// 61362h ≈ 0.0730 (multi-rank sampled per position halves its
	// module-level contribution: 3.7 FIT x 9 positions instead of 18).
	hours := 7 * HoursPerYear
	s := NewSampler(X8SECDED16GB, SridharanFITRates, 1, hours)
	rng := NewPCG(2, 2)
	perChip := (TotalFIT(SridharanFITRates) - SridharanFITRates[MultiRank].Total()) * 1e-9 * hours
	expected := perChip*18 + SridharanFITRates[MultiRank].Total()*1e-9*hours*9

	const n = 100000
	total := 0
	for i := 0; i < n; i++ {
		total += len(s.SampleLifetime(rng, nil))
	}
	mean := float64(total) / n
	if math.Abs(mean-expected) > 0.05*expected {
		t.Fatalf("mean faults per module %.5f, want ~%.5f", mean, expected)
	}
}

func TestSampleLifetimeOrderingAndBounds(t *testing.T) {
	t.Parallel()
	hours := 7 * HoursPerYear
	s := NewSampler(X4Chipkill16GB, SridharanFITRates, 50, hours) // high rate for coverage
	rng := NewPCG(3, 3)
	seenModes := map[Mode]bool{}
	for i := 0; i < 2000; i++ {
		faults := s.SampleLifetime(rng, nil)
		last := -1.0
		for _, f := range faults {
			seenModes[f.Mode] = true
			if f.Hours < last {
				t.Fatal("faults not time-ordered")
			}
			last = f.Hours
			if f.Hours < 0 || f.Hours > hours {
				t.Fatalf("fault time %v out of range", f.Hours)
			}
			if f.Mode != MultiRank && (f.Rank < 0 || f.Rank >= 2) {
				t.Fatalf("rank %d out of range", f.Rank)
			}
			if f.Chip < 0 || f.Chip >= 18 {
				t.Fatalf("chip %d out of range", f.Chip)
			}
			checkShape(t, f)
		}
	}
	for _, m := range Modes {
		if !seenModes[m] {
			t.Fatalf("mode %v never sampled", m)
		}
	}
}

func checkShape(t *testing.T, f Fault) {
	t.Helper()
	switch f.Mode {
	case SingleBit:
		if f.Bank < 0 || f.Row < 0 || f.Col < 0 {
			t.Fatalf("bit fault underspecified: %+v", f)
		}
	case SingleColumn:
		if f.Bank < 0 || f.Row >= 0 || f.Col < 0 {
			t.Fatalf("column fault shape: %+v", f)
		}
	case SingleWord:
		if f.Col%4 != 0 {
			t.Fatalf("word fault not beat-aligned: %+v", f)
		}
	case SingleRow:
		if f.Row < 0 || f.Col >= 0 {
			t.Fatalf("row fault shape: %+v", f)
		}
	case SingleBank:
		if f.Bank < 0 || f.Row >= 0 || f.Col >= 0 {
			t.Fatalf("bank fault shape: %+v", f)
		}
	case MultiBank:
		if f.Bank >= 0 {
			t.Fatalf("multi-bank fault shape: %+v", f)
		}
	case MultiRank:
		if f.Rank >= 0 || f.Bank >= 0 {
			t.Fatalf("multi-rank fault shape: %+v", f)
		}
	}
}

func TestTransientFractionMatchesRates(t *testing.T) {
	t.Parallel()
	s := NewSampler(X8SECDED16GB, SridharanFITRates, 100, 7*HoursPerYear)
	rng := NewPCG(4, 4)
	trans, perm := 0, 0
	for i := 0; i < 5000; i++ {
		for _, f := range s.SampleLifetime(rng, nil) {
			if f.Mode != SingleBit {
				continue
			}
			if f.Transient {
				trans++
			} else {
				perm++
			}
		}
	}
	frac := float64(trans) / float64(trans+perm)
	want := 14.2 / 32.8
	if math.Abs(frac-want) > 0.03 {
		t.Fatalf("transient fraction %.3f, want ~%.3f", frac, want)
	}
}

func TestFITScale(t *testing.T) {
	t.Parallel()
	rng := NewPCG(5, 5)
	hours := 7 * HoursPerYear
	count := func(scale float64) int {
		s := NewSampler(X8SECDED16GB, SridharanFITRates, scale, hours)
		total := 0
		for i := 0; i < 20000; i++ {
			total += len(s.SampleLifetime(rng, nil))
		}
		return total
	}
	c1, c10 := count(1), count(10)
	ratio := float64(c10) / float64(c1)
	if ratio < 8 || ratio > 12 {
		t.Fatalf("10x FIT scale gave %.2fx faults", ratio)
	}
}

func TestModeStringsAndSpans(t *testing.T) {
	t.Parallel()
	for _, m := range Modes {
		if m.String() == "" || m.String()[0] == 'f' {
			t.Fatalf("mode %d badly named: %q", m, m.String())
		}
	}
	if Mode(99).String() == "" {
		t.Fatal("unknown mode must still render")
	}
	f := Fault{Mode: SingleBank, Bank: 3, Row: -1, Col: -1}
	if f.SpansAllBanks() || !f.SpansAllRows() || !f.SpansAllCols() {
		t.Fatal("span predicates wrong")
	}
	if (Rate{Transient: 1, Permanent: 2}).Total() != 3 {
		t.Fatal("rate total")
	}
}

func TestSamplerGeometryAccessor(t *testing.T) {
	t.Parallel()
	s := NewSampler(X8SECDED16GB, SridharanFITRates, 1, 7*HoursPerYear)
	if s.Geometry().Devices() != 18 {
		t.Fatal("geometry accessor")
	}
}
