package cache

import (
	"math/rand/v2"
	"testing"
)

func TestBasicHitMiss(t *testing.T) {
	t.Parallel()
	c := New(32<<10, 4) // 128 sets x 4 ways
	if c.Lookup(100, false) {
		t.Fatal("empty cache hit")
	}
	c.Fill(100, false)
	if !c.Lookup(100, false) {
		t.Fatal("filled line missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	t.Parallel()
	c := New(64*4*1, 4) // 1 set, 4 ways (4 lines of 64B)
	for i := uint64(0); i < 4; i++ {
		c.Fill(i, false)
	}
	c.Lookup(0, false) // 0 becomes MRU; LRU order now 1,2,3
	ev := c.Fill(4, false)
	if !ev.Valid || ev.LineAddr != 1 {
		t.Fatalf("expected eviction of line 1, got %+v", ev)
	}
	if c.Contains(1) {
		t.Fatal("evicted line still present")
	}
	if !c.Contains(0) || !c.Contains(4) {
		t.Fatal("wrong contents after eviction")
	}
}

func TestDirtyTracking(t *testing.T) {
	t.Parallel()
	c := New(64*4, 4)
	c.Fill(1, false)
	c.Lookup(1, true) // store marks dirty
	for i := uint64(2); i <= 4; i++ {
		c.Fill(i, false)
	}
	ev := c.Fill(5, false)
	if !ev.Valid || ev.LineAddr != 1 || !ev.Dirty {
		t.Fatalf("expected dirty eviction of line 1, got %+v", ev)
	}
}

func TestFillExistingRefreshes(t *testing.T) {
	t.Parallel()
	c := New(64*4, 4)
	c.Fill(7, false)
	ev := c.Fill(7, true) // racing fill marks dirty, no eviction
	if ev.Valid {
		t.Fatal("re-fill must not evict")
	}
	for i := uint64(10); i < 13; i++ {
		c.Fill(i, false)
	}
	ev = c.Fill(20, false)
	if !ev.Dirty || ev.LineAddr != 7 {
		t.Fatalf("re-fill dirty bit lost: %+v", ev)
	}
}

func TestInvalidate(t *testing.T) {
	t.Parallel()
	c := New(64*4, 4)
	c.Fill(3, true)
	present, dirty := c.Invalidate(3)
	if !present || !dirty {
		t.Fatalf("invalidate: present=%v dirty=%v", present, dirty)
	}
	if c.Contains(3) {
		t.Fatal("line survived invalidation")
	}
	present, _ = c.Invalidate(3)
	if present {
		t.Fatal("double invalidation reported present")
	}
}

func TestSetIndexingDistributes(t *testing.T) {
	t.Parallel()
	c := New(32<<10, 4)
	// Lines mapping to different sets must not evict each other.
	for i := uint64(0); i < 128; i++ {
		c.Fill(i, false)
	}
	for i := uint64(0); i < 128; i++ {
		if !c.Contains(i) {
			t.Fatalf("line %d evicted despite distinct sets", i)
		}
	}
}

func TestWorkingSetResidency(t *testing.T) {
	t.Parallel()
	// A working set smaller than the cache must converge to ~100% hits.
	c := New(4<<20, 16) // the LLC
	r := rand.New(rand.NewPCG(1, 1))
	const ws = 32 << 10 // 32K lines = 2MB < 4MB
	for i := 0; i < 200000; i++ {
		line := r.Uint64N(ws)
		if !c.Lookup(line, false) {
			c.Fill(line, false)
		}
	}
	rate := float64(c.Hits) / float64(c.Hits+c.Misses)
	if rate < 0.80 {
		t.Fatalf("resident working set hit rate %.3f", rate)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(100, 3)
}

// ---------------------------------------------------------------------------
// Stream prefetcher
// ---------------------------------------------------------------------------

func TestPrefetcherDetectsAscendingStream(t *testing.T) {
	t.Parallel()
	p := NewStreamPrefetcher(4)
	var got []uint64
	for i := uint64(1000); i < 1010; i++ {
		got = p.OnAccess(i)
	}
	if len(got) != 4 {
		t.Fatalf("trained stream issued %d prefetches, want 4", len(got))
	}
	if got[0] != 1010 || got[3] != 1013 {
		t.Fatalf("wrong prefetch targets: %v", got)
	}
}

// A trained stream's suggestions come from the prefetcher's own buffer:
// steady-state training allocates nothing.
func TestPrefetcherOnAccessZeroAllocs(t *testing.T) {
	p := NewStreamPrefetcher(4)
	line := uint64(1000)
	for ; line < 1010; line++ {
		p.OnAccess(line)
	}
	if n := testing.AllocsPerRun(100, func() {
		if len(p.OnAccess(line)) != 4 {
			t.Fatal("stream lost training")
		}
		line++
	}); n != 0 {
		t.Fatalf("trained OnAccess allocates %.0f objects/op, want 0", n)
	}
}

func TestPrefetcherDetectsDescendingStream(t *testing.T) {
	t.Parallel()
	p := NewStreamPrefetcher(2)
	var got []uint64
	for i := uint64(2000); i > 1990; i-- {
		got = p.OnAccess(i)
	}
	if len(got) != 2 || got[0] != 1990 {
		t.Fatalf("descending stream: %v", got)
	}
}

func TestPrefetcherIgnoresRandom(t *testing.T) {
	t.Parallel()
	p := NewStreamPrefetcher(4)
	r := rand.New(rand.NewPCG(2, 2))
	issued := 0
	for i := 0; i < 10000; i++ {
		issued += len(p.OnAccess(r.Uint64N(1 << 30)))
	}
	if frac := float64(issued) / 10000; frac > 0.05 {
		t.Fatalf("random accesses triggered %.1f%% prefetches", frac*100)
	}
}

func TestPrefetcherTracksMultipleStreams(t *testing.T) {
	t.Parallel()
	p := NewStreamPrefetcher(2)
	// Interleave two streams in different 4KB regions.
	var a, b []uint64
	for i := uint64(0); i < 8; i++ {
		a = p.OnAccess(100 + i)
		b = p.OnAccess(10000 + i)
	}
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("interleaved streams not both detected")
	}
}
