package cache

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"testing"
)

// refCache is the rank-permutation LRU cache this package shipped before
// recency stamps: per-set slices, lru[set][way] = 0 for the most recent
// way, and a touch that re-ranks every way of the set. Cache must agree
// with it on every return value, every eviction and every snapshot.
type refCache struct {
	sets, ways   int
	tags         [][]uint64
	valid, dirty [][]bool
	lru          [][]int8
	hits, misses uint64
}

func newRefCache(capacityBytes, ways int) *refCache {
	sets := capacityBytes / 64 / ways
	c := &refCache{sets: sets, ways: ways}
	c.tags = make([][]uint64, sets)
	c.valid = make([][]bool, sets)
	c.dirty = make([][]bool, sets)
	c.lru = make([][]int8, sets)
	for s := range sets {
		c.tags[s] = make([]uint64, ways)
		c.valid[s] = make([]bool, ways)
		c.dirty[s] = make([]bool, ways)
		c.lru[s] = make([]int8, ways)
		for w := range ways {
			c.lru[s][w] = int8(w)
		}
	}
	return c
}

func (c *refCache) set(lineAddr uint64) int { return int(lineAddr) & (c.sets - 1) }

func (c *refCache) way(lineAddr uint64) (int, int) {
	s := c.set(lineAddr)
	for w := 0; w < c.ways; w++ {
		if c.valid[s][w] && c.tags[s][w] == lineAddr {
			return s, w
		}
	}
	return s, -1
}

func (c *refCache) Lookup(lineAddr uint64, markDirty bool) bool {
	s, w := c.way(lineAddr)
	if w < 0 {
		c.misses++
		return false
	}
	c.touch(s, w)
	if markDirty {
		c.dirty[s][w] = true
	}
	c.hits++
	return true
}

func (c *refCache) Contains(lineAddr uint64) bool {
	_, w := c.way(lineAddr)
	return w >= 0
}

func (c *refCache) Fill(lineAddr uint64, dirty bool) Eviction {
	s, w := c.way(lineAddr)
	if w >= 0 {
		c.touch(s, w)
		if dirty {
			c.dirty[s][w] = true
		}
		return Eviction{}
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

func (c *refCache) Invalidate(lineAddr uint64) (present, dirty bool) {
	s, w := c.way(lineAddr)
	if w < 0 {
		return false, false
	}
	c.valid[s][w] = false
	d := c.dirty[s][w]
	c.dirty[s][w] = false
	return true, d
}

func (c *refCache) touch(s, w int) {
	cur := c.lru[s][w]
	for i := 0; i < c.ways; i++ {
		if c.lru[s][i] < cur {
			c.lru[s][i]++
		}
	}
	c.lru[s][w] = 0
}

func (c *refCache) SaveState() State {
	st := State{Hits: c.hits, Misses: c.misses}
	for s := range c.sets {
		st.Tags = append(st.Tags, append([]uint64(nil), c.tags[s]...))
		st.Valid = append(st.Valid, append([]bool(nil), c.valid[s]...))
		st.Dirty = append(st.Dirty, append([]bool(nil), c.dirty[s]...))
		st.LRU = append(st.LRU, append([]int8(nil), c.lru[s]...))
	}
	return st
}

func stateJSON(t *testing.T, st State) string {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// lruOp is one random operation drawn from a small line pool, so sets
// fill, hit, evict and invalidate often.
type lruOp struct {
	kind  int // 0 Lookup, 1 Fill, 2 Invalidate, 3 Contains
	line  uint64
	dirty bool
}

func randomOps(rng *rand.Rand, n int, pool uint64) []lruOp {
	// 40% Lookup, 30% Fill, 10% Invalidate, 20% Contains.
	kinds := [10]int{0, 0, 0, 0, 1, 1, 1, 2, 3, 3}
	ops := make([]lruOp, n)
	for i := range ops {
		ops[i] = lruOp{kind: kinds[rng.IntN(10)], line: rng.Uint64N(pool), dirty: rng.IntN(3) == 0}
	}
	return ops
}

// applyBoth runs op on the cache and the reference and fails on any
// difference in what they return.
func applyBoth(t *testing.T, c *Cache, ref *refCache, op lruOp, step int) {
	t.Helper()
	var got, want any
	switch op.kind {
	case 0:
		got, want = c.Lookup(op.line, op.dirty), ref.Lookup(op.line, op.dirty)
	case 1:
		got, want = c.Fill(op.line, op.dirty), ref.Fill(op.line, op.dirty)
	case 2:
		p, d := c.Invalidate(op.line)
		rp, rd := ref.Invalidate(op.line)
		got, want = [2]bool{p, d}, [2]bool{rp, rd}
	default:
		got, want = c.Contains(op.line), ref.Contains(op.line)
	}
	if got != want {
		t.Fatalf("step %d %+v: cache returned %v, reference %v", step, op, got, want)
	}
}

// TestStampLRUMatchesRankReference drives Cache and the rank-permutation
// reference with the same seeded Lookup/Fill/Invalidate/Contains
// sequences on 4-way and 16-way geometries: every return value and
// eviction must match, and so must the SaveState JSON after every step.
// Midway the cache is saved and restored into a fresh one, which must
// continue identically.
func TestStampLRUMatchesRankReference(t *testing.T) {
	t.Parallel()
	for _, geo := range []struct{ bytes, ways int }{{4 * 64 * 4, 4}, {8 * 64 * 16, 16}} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%dway/seed%d", geo.ways, seed), func(t *testing.T) {
				t.Parallel()
				c, ref := New(geo.bytes, geo.ways), newRefCache(geo.bytes, geo.ways)
				lines := uint64(geo.bytes / 64)
				ops := randomOps(rand.New(rand.NewPCG(seed, 42)), 6000, 2*lines)
				for i, op := range ops {
					if i == len(ops)/2 {
						restored := New(geo.bytes, geo.ways)
						if err := restored.RestoreState(c.SaveState()); err != nil {
							t.Fatalf("RestoreState: %v", err)
						}
						c = restored
					}
					applyBoth(t, c, ref, op, i)
					if got, want := stateJSON(t, c.SaveState()), stateJSON(t, ref.SaveState()); got != want {
						t.Fatalf("step %d %+v: snapshots differ:\ncache     %s\nreference %s", i, op, got, want)
					}
				}
				if c.Hits == 0 || c.Misses == 0 {
					t.Fatalf("sequence never hit or never missed: %d/%d", c.Hits, c.Misses)
				}
			})
		}
	}
}

// A restore followed by more traffic must match the reference restored
// from the same snapshot, also for rank orders no fresh cache starts
// from.
func TestRestoreArbitraryRanksMatchesReference(t *testing.T) {
	t.Parallel()
	const bytes, ways = 2 * 64 * 16, 16
	rng := rand.New(rand.NewPCG(9, 9))
	donor := newRefCache(bytes, ways)
	for _, op := range randomOps(rng, 500, 64) {
		switch op.kind {
		case 0:
			donor.Lookup(op.line, op.dirty)
		case 1:
			donor.Fill(op.line, op.dirty)
		case 2:
			donor.Invalidate(op.line)
		}
	}
	st := donor.SaveState()
	c := New(bytes, ways)
	if err := c.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if got, want := stateJSON(t, c.SaveState()), stateJSON(t, st); got != want {
		t.Fatalf("restore round trip:\ngot  %s\nwant %s", got, want)
	}
	for i, op := range randomOps(rng, 2000, 64) {
		applyBoth(t, c, donor, op, i)
	}
	if got, want := stateJSON(t, c.SaveState()), stateJSON(t, donor.SaveState()); got != want {
		t.Fatalf("after restore:\ncache     %s\nreference %s", got, want)
	}
}

func TestRestoreStateRejects(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name   string
		tamper func(st *State)
	}{
		{"set count", func(st *State) { st.Tags = st.Tags[1:] }},
		{"associativity", func(st *State) { st.LRU[1] = st.LRU[1][1:] }},
		{"LRU rank outside", func(st *State) { st.LRU[0][2] = 4 }},
		{"negative LRU rank", func(st *State) { st.LRU[0][2] = -1 }},
		{"duplicate LRU rank", func(st *State) { st.LRU[1][3] = st.LRU[1][0] }},
	} {
		c := New(2*64*4, 4)
		c.Fill(0, false)
		c.Fill(2, true)
		st := c.SaveState()
		before := stateJSON(t, st)
		tc.tamper(&st)
		if err := New(2*64*4, 4).RestoreState(st); err == nil {
			t.Errorf("%s: tampered snapshot restored without error", tc.name)
		}
		if got := stateJSON(t, c.SaveState()); got != before {
			t.Errorf("%s: SaveState aliases the cache's arrays", tc.name)
		}
	}
}

// Lookup and Fill, hit or miss, allocate nothing.
func TestLookupFillZeroAllocs(t *testing.T) {
	c := New(32<<10, 4)
	rng := rand.New(rand.NewPCG(3, 3))
	if n := testing.AllocsPerRun(1000, func() {
		line := rng.Uint64N(4096)
		if !c.Lookup(line, line&1 == 0) {
			c.Fill(line, false)
		}
		c.Invalidate(rng.Uint64N(4096))
	}); n != 0 {
		t.Fatalf("Lookup/Fill/Invalidate allocate %.1f objects/op, want 0", n)
	}
}
