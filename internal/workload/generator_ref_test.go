package workload

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
)

// refGenerator is the generator's draw code as it was written against
// rand.Rand: the reference the direct PCG draws must reproduce.
type refGenerator struct {
	p         Params
	rng       *rand.Rand
	src       *rand.PCG
	base      uint64
	streamPos uint64
	storePos  uint64
}

func newRefGenerator(p Params, copyIdx int, seed uint64) *refGenerator {
	src := rand.NewPCG(seed, uint64(copyIdx)*0x9E3779B97F4A7C15+uint64(copyIdx)+1)
	g := &refGenerator{p: p, rng: rand.New(src), src: src, base: uint64(copyIdx) * copyStride}
	g.streamPos = g.rng.Uint64N(p.StreamWS * (lineBytes / wordBytes))
	g.storePos = g.rng.Uint64N(p.StoreWS * (lineBytes / wordBytes))
	return g
}

func (g *refGenerator) Next() Instr {
	r := g.rng.Float64()
	switch {
	case r < g.p.LoadFrac:
		return g.load()
	case r < g.p.LoadFrac+g.p.StoreFrac:
		g.storePos++
		if g.storePos >= g.p.StoreWS*(lineBytes/wordBytes) {
			g.storePos = 0
		}
		return Instr{IsStore: true, Addr: g.base + storeOffset + g.storePos*wordBytes}
	default:
		return Instr{}
	}
}

func (g *refGenerator) load() Instr {
	r := g.rng.Float64()
	switch {
	case r < g.p.StreamFrac:
		g.streamPos++
		if g.rng.Uint64N(128) == 0 {
			g.streamPos += 8 * (1 + g.rng.Uint64N(4))
		}
		if g.streamPos >= g.p.StreamWS*(lineBytes/wordBytes) {
			g.streamPos = 0
		}
		return Instr{IsLoad: true, Addr: g.base + g.streamPos*wordBytes}
	case r < g.p.StreamFrac+g.p.ChaseFrac:
		addr := g.base + coldOffset + g.rng.Uint64N(g.p.ColdWS)*lineBytes
		return Instr{IsLoad: true, Addr: addr, DependsOnLoad: true}
	case r < g.p.StreamFrac+g.p.ChaseFrac+g.p.ColdFrac:
		addr := g.base + coldOffset + g.rng.Uint64N(g.p.ColdWS)*lineBytes
		return Instr{IsLoad: true, Addr: addr}
	default:
		addr := g.base + hotOffset + g.rng.Uint64N(g.p.HotWS*(lineBytes/wordBytes))*wordBytes
		return Instr{IsLoad: true, Addr: addr}
	}
}

// TestGeneratorMatchesRandReference holds the direct PCG draws to the
// rand.Rand reference: for every SPEC profile and rate copy, plus a
// profile whose footprints are not powers of two (the multiply-and-reject
// path), the instruction streams and the final SaveState bytes agree.
func TestGeneratorMatchesRandReference(t *testing.T) {
	t.Parallel()
	odd := Params{Name: "odd", LoadFrac: 0.4, StoreFrac: 0.1, StreamFrac: 0.3, ChaseFrac: 0.2, ColdFrac: 0.2,
		StreamWS: 3000, ColdWS: 1<<40 + 12345, HotWS: 777, StoreWS: 1001}
	const n = 100_000
	for _, p := range append(append([]Params(nil), SPEC2017Rate...), odd) {
		for copyIdx := 0; copyIdx < 4; copyIdx++ {
			t.Run(fmt.Sprintf("%s/copy%d", p.Name, copyIdx), func(t *testing.T) {
				seed := uint64(17 + copyIdx)
				g, ref := NewGenerator(p, copyIdx, seed), newRefGenerator(p, copyIdx, seed)
				for i := 0; i < n; i++ {
					if got, want := g.Next(), ref.Next(); got != want {
						t.Fatalf("instruction %d: %+v, reference %+v", i, got, want)
					}
				}
				st, err := g.SaveState()
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.src.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(st.RNG, want) || st.StreamPos != ref.streamPos || st.StorePos != ref.storePos {
					t.Fatalf("final state %x/%d/%d, reference %x/%d/%d",
						st.RNG, st.StreamPos, st.StorePos, want, ref.streamPos, ref.storePos)
				}
			})
		}
	}
}

// TestUint64nMatchesRand checks the bounded draw alone across bounds
// where rejection is frequent (just above 2^63) as well as masks.
func TestUint64nMatchesRand(t *testing.T) {
	t.Parallel()
	g := &Generator{src: rand.NewPCG(3, 4)}
	ref := rand.New(rand.NewPCG(3, 4))
	for _, n := range []uint64{1, 2, 3, 7, 128, 1000, 1<<32 + 1, 1<<63 + 1, 1<<63 + 1<<62, ^uint64(0)} {
		for i := 0; i < 2000; i++ {
			if got, want := g.uint64n(n), ref.Uint64N(n); got != want {
				t.Fatalf("uint64n(%d) draw %d = %d, rand.Rand %d", n, i, got, want)
			}
		}
	}
}

// BenchmarkGeneratorNext times one instruction draw of the mcf stream.
//
//	go test -run '^$' -bench GeneratorNext ./internal/workload
func BenchmarkGeneratorNext(b *testing.B) {
	p, err := ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	g := NewGenerator(p, 0, 1)
	var loads int
	for i := 0; i < b.N; i++ {
		if g.Next().IsLoad {
			loads++
		}
	}
	if b.N > 1000 && loads == 0 {
		b.Fatal("no loads drawn")
	}
}
