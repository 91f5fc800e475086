package faultmodel

import (
	"math/rand/v2"
	"testing"
)

// math/rand/v2 is the oracle for the in-package generator: the same
// seeds must give the same stream, and the derived variates must match
// rand.Rand's draw for draw.

// pcgSeeds are the seed pairs every reference test walks: small, large
// and the ones the sampler goldens and faultsim blocks use.
var pcgSeeds = [][2]uint64{
	{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 3},
	{42, 7}, {7, 4097}, {1001, 245}, {1 << 32, 1 << 32},
	{^uint64(0), 0}, {0, ^uint64(0)}, {^uint64(0), ^uint64(0)},
	{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9}, {0x94d049bb133111eb, 12345},
}

func TestPCGMatchesMathRand(t *testing.T) {
	t.Parallel()
	for _, sd := range pcgSeeds {
		p, ref := NewPCG(sd[0], sd[1]), rand.NewPCG(sd[0], sd[1])
		for i := 0; i < 10000; i++ {
			if got, want := p.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %v draw %d: %#x, math/rand/v2 %#x", sd, i, got, want)
			}
		}
	}
}

// countingSource counts the oracle's draws, so a test can tell that a
// bounded draw rejected and redrew.
type countingSource struct {
	*rand.PCG
	draws int
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.PCG.Uint64()
}

func TestPCGVariatesMatchMathRand(t *testing.T) {
	t.Parallel()
	for _, sd := range pcgSeeds {
		p, ref := NewPCG(sd[0], sd[1]), rand.New(rand.NewPCG(sd[0], sd[1]))
		for i := 0; i < 2000; i++ {
			if got, want := p.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %v Float64 %d: %v, math/rand/v2 %v", sd, i, got, want)
			}
			// Masked (powers of two) and Lemire (9, 18) bounds: every
			// bound the module geometries draw with.
			for _, n := range []int{2, 9, 16, 18, 4096, 8192, 65536} {
				if got, want := p.IntN(n), ref.IntN(n); got != want {
					t.Fatalf("seed %v IntN(%d) %d: %d, math/rand/v2 %d", sd, n, i, got, want)
				}
			}
		}
	}
}

// Just above 2^63, about half of all products fall in the rejected
// range, so the Lemire loop must redraw — and consume the same draws as
// rand.Rand's.
func TestPCGUint64nRejectionMatchesMathRand(t *testing.T) {
	t.Parallel()
	const n = 1<<63 + 1
	const calls = 1000
	for _, sd := range pcgSeeds {
		src := &countingSource{PCG: rand.NewPCG(sd[0], sd[1])}
		p, ref := NewPCG(sd[0], sd[1]), rand.New(src)
		for i := 0; i < calls; i++ {
			if got, want := p.uint64n(n), ref.Uint64N(n); got != want {
				t.Fatalf("seed %v uint64n %d: %#x, math/rand/v2 %#x", sd, i, got, want)
			}
		}
		if src.draws <= calls {
			t.Fatalf("seed %v: %d draws for %d calls, rejection never ran", sd, src.draws, calls)
		}
		if got, want := p.Uint64(), src.Uint64(); got != want {
			t.Fatalf("seed %v: streams diverged after rejection: %#x vs %#x", sd, got, want)
		}
	}
}

func TestPCGIntNRejectsNonPositive(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("IntN(%d) did not panic", n)
				}
			}()
			NewPCG(1, 1).IntN(n)
		}()
	}
}

// peek(j) reads the (j+1)-th next draw off the current state and
// advance(k) lands where k sequential draws do, for every jump the
// fast path uses, from states along each stream.
func TestPCGJumpAheadMatchesSequential(t *testing.T) {
	t.Parallel()
	for _, sd := range pcgSeeds {
		p := NewPCG(sd[0], sd[1])
		for step := 0; step < 64; step++ {
			seq := *p
			var next [numModes]uint64
			for i := range next {
				next[i] = seq.Uint64()
			}
			for j := 0; j < numModes; j++ {
				if got := p.peek(j); got != next[j] {
					t.Fatalf("seed %v step %d: peek(%d) = %#x, draw %d = %#x", sd, step, j, got, j+1, next[j])
				}
			}
			for k := 1; k <= numModes; k++ {
				jumped, walked := *p, *p
				jumped.advance(k)
				for i := 0; i < k; i++ {
					walked.Uint64()
				}
				if jumped != walked {
					t.Fatalf("seed %v step %d: advance(%d) = %+v, %d draws = %+v", sd, step, k, jumped, k, walked)
				}
			}
			p.Uint64()
		}
	}
}

// sampleLifetimeSequential is the sampler without the fast path: every
// mode draws its Poisson variate in turn from a rand.Rand, as the
// sampler did before it had its own generator.
func sampleLifetimeSequential(s *Sampler, rng *rand.Rand) []Fault {
	var out []Fault
	for _, mp := range s.plan[:s.n] {
		k, p := 0, 1.0
		for p *= rng.Float64(); p > mp.expNegLambda; p *= rng.Float64() {
			k++
		}
		for ; k > 0; k-- {
			g := s.geom
			f := Fault{Mode: mp.mode, Rank: rng.IntN(g.Ranks), Chip: rng.IntN(g.ChipsPerRank),
				Bank: rng.IntN(g.Chip.Banks), Row: rng.IntN(g.Chip.Rows), Col: rng.IntN(g.Chip.Cols)}
			switch mp.mode {
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
			f.Hours = rng.Float64() * s.hours
			f.Transient = rng.Float64()*mp.total < mp.transient
			out = append(out, f)
		}
	}
	sortByTime(out)
	return out
}

// The fast path changes no fault and no draw count: module after
// module, SampleLifetime matches the purely sequential draw, and the
// two streams stay in step. The rate sets cover fault-free-heavy
// (1x), fault-heavy (50x) and plans with modes that do not draw.
func TestSampleLifetimeMatchesSequentialReference(t *testing.T) {
	t.Parallel()
	sparse := map[Mode]Rate{SingleBit: {Transient: 1}, SingleRow: {Permanent: 5000}, MultiRank: {Transient: 2, Permanent: 3}}
	cases := []struct {
		geom  ModuleGeometry
		rates map[Mode]Rate
		scale float64
	}{
		{X8SECDED16GB, SridharanFITRates, 1},
		{X4Chipkill16GB, SridharanFITRates, 10},
		{X4Chipkill16GB, SridharanFITRates, 50},
		{X8SECDED16GB, sparse, 1},
	}
	for ci, c := range cases {
		s := NewSampler(c.geom, c.rates, c.scale, 7*HoursPerYear)
		p, ref := NewPCG(uint64(ci), 9), rand.New(rand.NewPCG(uint64(ci), 9))
		var buf []Fault
		for m := 0; m < 5000; m++ {
			buf = s.SampleLifetime(p, buf[:0])
			want := sampleLifetimeSequential(s, ref)
			if len(buf) != len(want) {
				t.Fatalf("case %d module %d: %d faults, sequential %d", ci, m, len(buf), len(want))
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("case %d module %d fault %d: %+v, sequential %+v", ci, m, i, buf[i], want[i])
				}
			}
		}
		if got, want := p.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("case %d: streams out of step after the run: %#x vs %#x", ci, got, want)
		}
	}
}
