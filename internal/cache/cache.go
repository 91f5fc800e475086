// Package cache implements the cache hierarchy of the paper's Table II
// configuration: private 32KB 4-way L1 data caches, a shared 4MB 16-way
// inclusive write-back LLC, LRU replacement, and an LLC-side stream
// prefetcher. The model tracks tags and dirtiness only — the performance
// simulation needs timing and traffic, not data.
package cache

// Line addresses everywhere: physical address >> 6.

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement.
type Cache struct {
	sets  int
	ways  int
	tags  [][]uint64 // tags[set][way], valid bit encoded via valid slice
	valid [][]bool
	dirty [][]bool
	lru   [][]int8 // lower value = more recently used

	Hits   uint64
	Misses uint64
}

// New builds a cache of capacityBytes with the given associativity over
// 64-byte lines.
func New(capacityBytes, ways int) *Cache {
	lines := capacityBytes / 64
	sets := lines / ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	c := &Cache{sets: sets, ways: ways}
	c.tags = make([][]uint64, sets)
	c.valid = make([][]bool, sets)
	c.dirty = make([][]bool, sets)
	c.lru = make([][]int8, sets)
	// Each array's sets are windows of one backing allocation.
	tags := make([]uint64, lines)
	valid := make([]bool, lines)
	dirty := make([]bool, lines)
	lru := make([]int8, lines)
	for s := 0; s < sets; s++ {
		lo, hi := s*ways, (s+1)*ways
		c.tags[s] = tags[lo:hi:hi]
		c.valid[s] = valid[lo:hi:hi]
		c.dirty[s] = dirty[lo:hi:hi]
		c.lru[s] = lru[lo:hi:hi]
		// LRU ranks start as a permutation; touch preserves it.
		for w := 0; w < ways; w++ {
			c.lru[s][w] = int8(w)
		}
	}
	return c
}

// Eviction describes a line displaced by a fill.
type Eviction struct {
	LineAddr uint64
	Dirty    bool
	Valid    bool
}

func (c *Cache) set(lineAddr uint64) int { return int(lineAddr) & (c.sets - 1) }

// Lookup probes the cache; on hit it updates LRU and optionally marks the
// line dirty.
func (c *Cache) Lookup(lineAddr uint64, markDirty bool) bool {
	s := c.set(lineAddr)
	for w := 0; w < c.ways; w++ {
		if c.valid[s][w] && c.tags[s][w] == lineAddr {
			c.touch(s, w)
			if markDirty {
				c.dirty[s][w] = true
			}
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Contains probes without updating any state.
func (c *Cache) Contains(lineAddr uint64) bool {
	s := c.set(lineAddr)
	for w := 0; w < c.ways; w++ {
		if c.valid[s][w] && c.tags[s][w] == lineAddr {
			return true
		}
	}
	return false
}

// Fill inserts a line (after a miss), returning the eviction it displaced.
func (c *Cache) Fill(lineAddr uint64, dirty bool) Eviction {
	s := c.set(lineAddr)
	// Already present (racing fills): refresh state.
	for w := 0; w < c.ways; w++ {
		if c.valid[s][w] && c.tags[s][w] == lineAddr {
			c.touch(s, w)
			if dirty {
				c.dirty[s][w] = true
			}
			return Eviction{}
		}
	}
	victim := 0
	for w := 0; w < c.ways; w++ {
		if !c.valid[s][w] {
			victim = w
			break
		}
		if c.lru[s][w] > c.lru[s][victim] {
			victim = w
		}
	}
	ev := Eviction{LineAddr: c.tags[s][victim], Dirty: c.dirty[s][victim], Valid: c.valid[s][victim]}
	c.tags[s][victim] = lineAddr
	c.valid[s][victim] = true
	c.dirty[s][victim] = dirty
	c.touch(s, victim)
	return ev
}

// Invalidate removes a line (inclusive-hierarchy back-invalidation),
// reporting whether it was present and dirty.
func (c *Cache) Invalidate(lineAddr uint64) (present, dirty bool) {
	s := c.set(lineAddr)
	for w := 0; w < c.ways; w++ {
		if c.valid[s][w] && c.tags[s][w] == lineAddr {
			c.valid[s][w] = false
			d := c.dirty[s][w]
			c.dirty[s][w] = false
			return true, d
		}
	}
	return false, false
}

// touch makes way w the MRU of set s.
func (c *Cache) touch(s, w int) {
	cur := c.lru[s][w]
	for i := 0; i < c.ways; i++ {
		if c.lru[s][i] < cur {
			c.lru[s][i]++
		}
	}
	c.lru[s][w] = 0
}

// ---------------------------------------------------------------------------
// Stream prefetcher (Table II: "Stream prefetcher")
// ---------------------------------------------------------------------------

// StreamPrefetcher detects sequential line streams within 4KB regions at
// the LLC and issues prefetches a configurable distance ahead.
type StreamPrefetcher struct {
	// Degree is how many lines ahead to prefetch once a stream trains.
	Degree int
	// entries tracks recent regions.
	entries []streamEntry
	// buf backs the slice OnAccess returns.
	buf []uint64

	Issued uint64
}

type streamEntry struct {
	region   uint64 // lineAddr >> 6 (4KB region)
	lastLine uint64
	dir      int
	score    int
	valid    bool
}

// NewStreamPrefetcher builds a 64-entry detector with the given degree.
func NewStreamPrefetcher(degree int) *StreamPrefetcher {
	return &StreamPrefetcher{Degree: degree, entries: make([]streamEntry, 64)}
}

// trainThreshold is how many sequential hits arm a stream.
const trainThreshold = 2

// OnAccess observes a demand access and returns line addresses to
// prefetch, nearest first. The slice is the prefetcher's own buffer: it
// is valid until the next OnAccess call.
func (p *StreamPrefetcher) OnAccess(lineAddr uint64) []uint64 {
	region := lineAddr >> 6
	var e *streamEntry
	for i := range p.entries {
		if p.entries[i].valid && p.entries[i].region == region {
			e = &p.entries[i]
			break
		}
	}
	if e == nil {
		// Allocate (evict the lowest-score entry). A stream crossing
		// into a fresh 4KB region inherits the neighbouring region's
		// training so it keeps prefetching without a retraining gap.
		victim := 0
		for i := range p.entries {
			if !p.entries[i].valid {
				victim = i
				break
			}
			if p.entries[i].score < p.entries[victim].score {
				victim = i
			}
		}
		ne := streamEntry{region: region, lastLine: lineAddr, valid: true}
		for i := range p.entries {
			prev := &p.entries[i]
			if !prev.valid || prev.score < trainThreshold {
				continue
			}
			if (prev.dir == 1 && prev.region+1 == region) || (prev.dir == -1 && prev.region == region+1) {
				ne.dir = prev.dir
				ne.score = prev.score
				break
			}
		}
		p.entries[victim] = ne
		if ne.score >= trainThreshold {
			return p.suggest(lineAddr, ne.dir)
		}
		return nil
	}
	// Any small advance in one direction counts as stream progress —
	// real streams skip lines at loop boundaries.
	delta := int64(lineAddr) - int64(e.lastLine)
	dir := 0
	switch {
	case delta > 0 && delta <= 8:
		dir = 1
	case delta < 0 && delta >= -8:
		dir = -1
	}
	if dir != 0 && dir == e.dir {
		e.score++
	} else if dir != 0 {
		e.dir = dir
		e.score = 1
	} else if delta != 0 {
		e.score = 0
	}
	e.lastLine = lineAddr
	if e.score < trainThreshold {
		return nil
	}
	return p.suggest(lineAddr, e.dir)
}

// suggest fills the prefetcher's own buffer with the Degree lines ahead
// of lineAddr in direction dir (nearest first) and returns it.
func (p *StreamPrefetcher) suggest(lineAddr uint64, dir int) []uint64 {
	out := p.buf[:0]
	for i := 1; i <= p.Degree; i++ {
		next := int64(lineAddr) + int64(i*dir)
		if next >= 0 {
			out = append(out, uint64(next))
		}
	}
	p.buf = out
	p.Issued += uint64(len(out))
	return out
}
