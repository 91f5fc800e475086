package faultmodel

import "math/bits"

// PCG is a PCG-DXSM generator with 128 bits of state. Its state update,
// multiplier, increment and output function are those of math/rand/v2's
// PCG, so NewPCG(a, b) yields the same Uint64 stream as rand.NewPCG(a, b),
// and Float64/IntN reproduce rand.Rand's 64-bit derivations draw for
// draw. The sampler takes it as a concrete type — every draw inlines
// instead of dispatching through rand.Source — and relies on one thing
// rand.PCG does not offer: computing a later draw directly from the
// current state (peek) and jumping ahead (advance).
type PCG struct {
	hi, lo uint64
}

// The LCG step is state = state*mul + inc (mod 2^128).
const (
	pcgMulHi = 2549297995355413924
	pcgMulLo = 4865540595714422341
	pcgIncHi = 6364136223846793005
	pcgIncLo = 1442695040888963407
)

// NewPCG returns a generator seeded like rand.NewPCG(seed1, seed2).
func NewPCG(seed1, seed2 uint64) *PCG {
	return &PCG{hi: seed1, lo: seed2}
}

// u128 is an unsigned 128-bit integer.
type u128 struct{ hi, lo uint64 }

// mul returns a*b mod 2^128.
func (a u128) mul(b u128) u128 {
	hi, lo := bits.Mul64(a.lo, b.lo)
	return u128{hi + a.hi*b.lo + a.lo*b.hi, lo}
}

// add returns a+b mod 2^128.
func (a u128) add(b u128) u128 {
	lo, c := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, c)
	return u128{hi, lo}
}

// pcgJump is one precomputed jump: k LCG steps collapse to
// state*mul + inc with mul = M^k and inc = I·(M^(k-1) + … + M + 1).
type pcgJump struct{ mul, inc u128 }

// pcgJumps[j] advances the state by j+1 steps, for every jump the
// sampler's fault-free fast path needs (at most one per mode).
var pcgJumps = func() (t [numModes]pcgJump) {
	step := pcgJump{u128{pcgMulHi, pcgMulLo}, u128{pcgIncHi, pcgIncLo}}
	t[0] = step
	for j := 1; j < len(t); j++ {
		// Compose one more step after the previous jump.
		t[j] = pcgJump{step.mul.mul(t[j-1].mul), step.mul.mul(t[j-1].inc).add(step.inc)}
	}
	return t
}()

// dxsm is PCG's "double xorshift multiply" output function of a state.
func dxsm(hi, lo uint64) uint64 {
	const cheapMul = 0xda942042e4dd58b5
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	hi *= lo | 1
	return hi
}

// Uint64 returns the next uniformly distributed 64-bit value.
func (p *PCG) Uint64() uint64 {
	hi, lo := bits.Mul64(p.lo, pcgMulLo)
	lo, c := bits.Add64(lo, pcgIncLo, 0)
	p.hi, p.lo = hi+p.hi*pcgMulLo+p.lo*pcgMulHi+pcgIncHi+c, lo
	return dxsm(p.hi, lo)
}

// The jumps below are Uint64's state step with a precomputed
// multiplier and increment, written out rather than shared so that
// each stays within the compiler's inlining budget.

// peek returns the value the (j+1)-th next Uint64 call would return,
// without advancing the state; 0 <= j < numModes.
func (p *PCG) peek(j int) uint64 {
	jp := &pcgJumps[j]
	hi, lo := bits.Mul64(p.lo, jp.mul.lo)
	lo, c := bits.Add64(lo, jp.inc.lo, 0)
	return dxsm(hi+p.hi*jp.mul.lo+p.lo*jp.mul.hi+jp.inc.hi+c, lo)
}

// advance moves the state k steps ahead, as k Uint64 calls would;
// 0 < k <= numModes.
func (p *PCG) advance(k int) {
	jp := &pcgJumps[k-1]
	hi, lo := bits.Mul64(p.lo, jp.mul.lo)
	lo, c := bits.Add64(lo, jp.inc.lo, 0)
	p.hi, p.lo = hi+p.hi*jp.mul.lo+p.lo*jp.mul.hi+jp.inc.hi+c, lo
}

// Float64 returns a value in [0, 1), as rand.Rand.Float64 does: the low
// 53 bits of one draw, scaled.
func (p *PCG) Float64() float64 {
	return float64(p.Uint64()<<11>>11) / (1 << 53)
}

// IntN returns a value in [0, n), as rand.Rand.IntN does. It panics if
// n <= 0.
func (p *PCG) IntN(n int) int {
	if n <= 0 {
		panic("faultmodel: invalid argument to IntN")
	}
	return int(p.uint64n(uint64(n)))
}

// uint64n is rand.Rand's 64-bit bounded draw: a mask when n is a power
// of two, otherwise Lemire's multiply-shift with rejection of the
// 2^64 mod n biased products.
func (p *PCG) uint64n(n uint64) uint64 {
	if n&(n-1) == 0 {
		return p.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(p.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(p.Uint64(), n)
		}
	}
	return hi
}
