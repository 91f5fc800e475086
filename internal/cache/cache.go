// Package cache implements the cache hierarchy of the paper's Table II
// configuration: private 32KB 4-way L1 data caches, a shared 4MB 16-way
// inclusive write-back LLC, LRU replacement, and an LLC-side stream
// prefetcher. The model tracks tags and dirtiness only — the performance
// simulation needs timing and traffic, not data.
package cache

// Line addresses everywhere: physical address >> 6.

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement. Every per-line array is flat, indexed set*ways+way.
type Cache struct {
	sets  int
	ways  int
	tags  []uint64
	valid []bool
	dirty []bool
	// stamp orders each set's ways by recency: a touch stamps its way
	// with clock and advances it, so the least recently used way of a
	// set holds the set's smallest stamp. Stamps within a set are
	// distinct, and their order is exactly the LRU rank order a
	// snapshot records (see SaveState).
	stamp []uint64
	clock uint64

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
	c := &Cache{
		sets:  sets,
		ways:  ways,
		tags:  make([]uint64, lines),
		valid: make([]bool, lines),
		dirty: make([]bool, lines),
		stamp: make([]uint64, lines),
	}
	c.resetRecency(func(_, w int) int { return w })
	return c
}

// resetRecency stamps every way from an LRU rank (0 = most recent):
// rank r becomes stamp ways-1-r, below the restarted clock.
func (c *Cache) resetRecency(rank func(set, way int) int) {
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.ways; w++ {
			c.stamp[s*c.ways+w] = uint64(c.ways - 1 - rank(s, w))
		}
	}
	c.clock = uint64(c.ways)
}

// Eviction describes a line displaced by a fill.
type Eviction struct {
	LineAddr uint64
	Dirty    bool
	Valid    bool
}

// base returns the flat index of way 0 of lineAddr's set.
func (c *Cache) base(lineAddr uint64) int { return (int(lineAddr) & (c.sets - 1)) * c.ways }

// find returns the flat index of lineAddr's valid way, or -1.
func (c *Cache) find(lineAddr uint64) int {
	b := c.base(lineAddr)
	tags := c.tags[b : b+c.ways]
	valid := c.valid[b : b+len(tags)]
	for w, tag := range tags {
		if tag == lineAddr && valid[w] {
			return b + w
		}
	}
	return -1
}

// Lookup probes the cache; on hit it updates LRU and optionally marks the
// line dirty.
func (c *Cache) Lookup(lineAddr uint64, markDirty bool) bool {
	i := c.find(lineAddr)
	if i < 0 {
		c.Misses++
		return false
	}
	c.touch(i)
	if markDirty {
		c.dirty[i] = true
	}
	c.Hits++
	return true
}

// Contains probes without updating any state.
func (c *Cache) Contains(lineAddr uint64) bool { return c.find(lineAddr) >= 0 }

// Fill inserts a line (after a miss), returning the eviction it displaced.
func (c *Cache) Fill(lineAddr uint64, dirty bool) Eviction {
	// Already present (racing fills): refresh state.
	if i := c.find(lineAddr); i >= 0 {
		c.touch(i)
		if dirty {
			c.dirty[i] = true
		}
		return Eviction{}
	}
	// The victim is the first invalid way, else the least recent.
	b := c.base(lineAddr)
	valid := c.valid[b : b+c.ways]
	stamp := c.stamp[b : b+len(valid)]
	victim := 0
	for w, v := range valid {
		if !v {
			victim = w
			break
		}
		if stamp[w] < stamp[victim] {
			victim = w
		}
	}
	i := b + victim
	ev := Eviction{LineAddr: c.tags[i], Dirty: c.dirty[i], Valid: c.valid[i]}
	c.tags[i] = lineAddr
	c.valid[i] = true
	c.dirty[i] = dirty
	c.touch(i)
	return ev
}

// Invalidate removes a line (inclusive-hierarchy back-invalidation),
// reporting whether it was present and dirty.
func (c *Cache) Invalidate(lineAddr uint64) (present, dirty bool) {
	i := c.find(lineAddr)
	if i < 0 {
		return false, false
	}
	c.valid[i] = false
	d := c.dirty[i]
	c.dirty[i] = false
	return true, d
}

// touch makes the way at flat index i the MRU of its set.
func (c *Cache) touch(i int) {
	c.stamp[i] = c.clock
	c.clock++
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
