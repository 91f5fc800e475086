package cache

import (
	"math/rand/v2"
	"testing"
)

// benchCaches are the Table II geometries: the private L1 and the LLC.
var benchCaches = []struct {
	name        string
	bytes, ways int
}{
	{"L1-32KB-4way", 32 << 10, 4},
	{"LLC-4MB-16way", 4 << 20, 16},
}

// benchAddrs is a seeded address ring over a pool 1.5x the cache's line
// count, so a warm cache hits about two thirds of probes.
func benchAddrs(bytes int) []uint64 {
	rng := rand.New(rand.NewPCG(1, 1))
	pool := uint64(bytes/64) * 3 / 2
	addrs := make([]uint64, 1<<18)
	for i := range addrs {
		addrs[i] = rng.Uint64N(pool)
	}
	return addrs
}

// warm fills c from the ring until its steady hit/miss mix.
func warm(c *Cache, addrs []uint64) {
	for range 4 {
		for _, a := range addrs {
			if !c.Lookup(a, false) {
				c.Fill(a, false)
			}
		}
	}
}

// BenchmarkCacheLookup times one probe of a warm cache under a seeded
// hit/miss mix; hit_frac reports the mix measured.
//
//	go test -run '^$' -bench 'Cache(Lookup|Fill)' ./internal/cache
func BenchmarkCacheLookup(b *testing.B) {
	for _, g := range benchCaches {
		b.Run(g.name, func(b *testing.B) {
			c := New(g.bytes, g.ways)
			addrs := benchAddrs(g.bytes)
			warm(c, addrs)
			h0, m0 := c.Hits, c.Misses
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Lookup(addrs[i&(len(addrs)-1)], i&7 == 0)
			}
			b.ReportMetric(float64(c.Hits-h0)/float64(c.Hits-h0+c.Misses-m0), "hit_frac")
		})
	}
}

// BenchmarkCacheFill times one fill of a warm cache from the same mix:
// a fill of a resident line refreshes it, any other evicts a victim;
// evict_frac reports how many fills displaced a valid line.
func BenchmarkCacheFill(b *testing.B) {
	for _, g := range benchCaches {
		b.Run(g.name, func(b *testing.B) {
			c := New(g.bytes, g.ways)
			addrs := benchAddrs(g.bytes)
			warm(c, addrs)
			evicted := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.Fill(addrs[i&(len(addrs)-1)], i&3 == 0).Valid {
					evicted++
				}
			}
			b.ReportMetric(float64(evicted)/float64(b.N), "evict_frac")
		})
	}
}
