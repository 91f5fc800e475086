package cache

import "fmt"

// State is a cache's complete serializable state: the tag/valid/dirty/LRU
// arrays plus the hit/miss counters. Geometry (set count, associativity) is
// configuration, not state — RestoreState validates that the snapshot's
// shape matches the cache it restores into.
type State struct {
	Tags   [][]uint64 `json:"tags"`
	Valid  [][]bool   `json:"valid"`
	Dirty  [][]bool   `json:"dirty"`
	LRU    [][]int8   `json:"lru"`
	Hits   uint64     `json:"hits"`
	Misses uint64     `json:"misses"`
}

// SaveState deep-copies the cache contents. Each way's LRU rank is the
// number of ways in its set touched more recently.
func (c *Cache) SaveState() State {
	st := State{
		Tags:   make([][]uint64, c.sets),
		Valid:  make([][]bool, c.sets),
		Dirty:  make([][]bool, c.sets),
		LRU:    make([][]int8, c.sets),
		Hits:   c.Hits,
		Misses: c.Misses,
	}
	for s := 0; s < c.sets; s++ {
		lo, hi := s*c.ways, (s+1)*c.ways
		st.Tags[s] = append([]uint64(nil), c.tags[lo:hi]...)
		st.Valid[s] = append([]bool(nil), c.valid[lo:hi]...)
		st.Dirty[s] = append([]bool(nil), c.dirty[lo:hi]...)
		st.LRU[s] = make([]int8, c.ways)
		stamps := c.stamp[lo:hi]
		for w, sw := range stamps {
			for _, so := range stamps {
				if so > sw {
					st.LRU[s][w]++
				}
			}
		}
	}
	return st
}

// RestoreState overwrites the cache contents from a snapshot taken on a
// cache of the same geometry. Each set's LRU ranks must be a permutation
// of [0,ways): a tie has no recency order to restore.
func (c *Cache) RestoreState(st State) error {
	if len(st.Tags) != c.sets || len(st.Valid) != c.sets || len(st.Dirty) != c.sets || len(st.LRU) != c.sets {
		return fmt.Errorf("cache: snapshot has %d/%d/%d/%d sets, cache has %d",
			len(st.Tags), len(st.Valid), len(st.Dirty), len(st.LRU), c.sets)
	}
	seen := make([]bool, c.ways)
	for s := 0; s < c.sets; s++ {
		if len(st.Tags[s]) != c.ways || len(st.Valid[s]) != c.ways || len(st.Dirty[s]) != c.ways || len(st.LRU[s]) != c.ways {
			return fmt.Errorf("cache: snapshot set %d has wrong associativity", s)
		}
		clear(seen)
		for w, r := range st.LRU[s] {
			if r < 0 || int(r) >= c.ways {
				return fmt.Errorf("cache: snapshot set %d way %d has LRU rank %d outside [0,%d)", s, w, r, c.ways)
			}
			if seen[r] {
				return fmt.Errorf("cache: snapshot set %d has duplicate LRU rank %d", s, r)
			}
			seen[r] = true
		}
	}
	for s := 0; s < c.sets; s++ {
		lo := s * c.ways
		copy(c.tags[lo:], st.Tags[s])
		copy(c.valid[lo:], st.Valid[s])
		copy(c.dirty[lo:], st.Dirty[s])
	}
	c.resetRecency(func(s, w int) int { return int(st.LRU[s][w]) })
	c.Hits = st.Hits
	c.Misses = st.Misses
	return nil
}

// StreamEntryState is one serialized stream-detector entry.
type StreamEntryState struct {
	Region   uint64 `json:"region"`
	LastLine uint64 `json:"last_line"`
	Dir      int    `json:"dir"`
	Score    int    `json:"score"`
	Valid    bool   `json:"valid"`
}

// PrefetcherState is a stream prefetcher's complete serializable state.
type PrefetcherState struct {
	Entries []StreamEntryState `json:"entries"`
	Issued  uint64             `json:"issued"`
}

// SaveState copies the detector table and issue counter.
func (p *StreamPrefetcher) SaveState() PrefetcherState {
	st := PrefetcherState{Entries: make([]StreamEntryState, len(p.entries)), Issued: p.Issued}
	for i, e := range p.entries {
		st.Entries[i] = StreamEntryState{Region: e.region, LastLine: e.lastLine, Dir: e.dir, Score: e.score, Valid: e.valid}
	}
	return st
}

// RestoreState overwrites the detector from a snapshot taken on a
// prefetcher with the same table size.
func (p *StreamPrefetcher) RestoreState(st PrefetcherState) error {
	if len(st.Entries) != len(p.entries) {
		return fmt.Errorf("cache: prefetcher snapshot has %d entries, table has %d", len(st.Entries), len(p.entries))
	}
	for i, e := range st.Entries {
		if e.Dir < -1 || e.Dir > 1 {
			return fmt.Errorf("cache: prefetcher snapshot entry %d has direction %d outside [-1,1]", i, e.Dir)
		}
		p.entries[i] = streamEntry{region: e.Region, lastLine: e.LastLine, dir: e.Dir, score: e.Score, valid: e.Valid}
	}
	p.Issued = st.Issued
	return nil
}
