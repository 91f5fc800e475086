package memctrl

import (
	"testing"

	"safeguard/internal/dram"
)

func newCtl() *Controller {
	return New(dram.Table2Geometry, dram.DDR4_3200())
}

// runUntil ticks the controller until pred or the cycle bound.
func runUntil(c *Controller, bound int64, pred func() bool) bool {
	for i := int64(0); i < bound; i++ {
		if pred() {
			return true
		}
		c.Tick()
	}
	return pred()
}

func TestColdReadLatency(t *testing.T) {
	t.Parallel()
	// A single read to a closed bank costs ACT(tRCD) + RD(tCL) + burst:
	// 22 + 22 + 4 = 48 MC cycles, plus a scheduling cycle or two.
	c := newCtl()
	var done int64 = -1
	if !c.EnqueueRead(0, func(at int64) { done = at }) {
		t.Fatal("enqueue failed")
	}
	if !runUntil(c, 200, func() bool { return done >= 0 }) {
		t.Fatal("read never completed")
	}
	if done < 48 || done > 60 {
		t.Fatalf("cold read latency %d MC cycles, want ~48", done)
	}
	if c.Stats.RowMisses != 1 || c.Stats.RowHits != 0 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

func TestRowHitLatency(t *testing.T) {
	t.Parallel()
	// The second read to an open row skips ACT: ~tCL + burst later.
	c := newCtl()
	var d1, d2 int64 = -1, -1
	c.EnqueueRead(0, func(at int64) { d1 = at })
	c.EnqueueRead(1, func(at int64) { d2 = at }) // same row, next column
	runUntil(c, 300, func() bool { return d1 >= 0 && d2 >= 0 })
	if d1 < 0 || d2 < 0 {
		t.Fatal("reads never completed")
	}
	if c.Stats.RowHits != 1 {
		t.Fatalf("expected one row hit, got %+v", c.Stats)
	}
	// Back-to-back bursts: second completes ~tCCD (or burst) after.
	gap := d2 - d1
	if gap <= 0 || gap > 10 {
		t.Fatalf("row-hit gap %d cycles", gap)
	}
}

func TestRowConflictCostsPrecharge(t *testing.T) {
	t.Parallel()
	m := dram.NewMapper(dram.Table2Geometry)
	c := newCtl()
	sameBankOtherRow := m.Encode(dram.Coord{Rank: 0, Bank: 0, Row: 1, Col: 0})
	var d1, d2 int64 = -1, -1
	c.EnqueueRead(0, func(at int64) { d1 = at })
	c.EnqueueRead(sameBankOtherRow, func(at int64) { d2 = at })
	runUntil(c, 500, func() bool { return d1 >= 0 && d2 >= 0 })
	if d2-d1 < int64(dram.DDR4_3200().TRP) {
		t.Fatalf("row conflict gap %d, must include precharge", d2-d1)
	}
}

func TestBankParallelism(t *testing.T) {
	t.Parallel()
	// Reads to different banks overlap: 4 reads to 4 banks complete far
	// sooner than 4x the cold latency.
	m := dram.NewMapper(dram.Table2Geometry)
	c := newCtl()
	var done int
	var last int64
	for b := 0; b < 4; b++ {
		c.EnqueueRead(m.Encode(dram.Coord{Rank: 0, Bank: b, Row: 5, Col: 0}),
			func(at int64) { done++; last = at })
	}
	runUntil(c, 1000, func() bool { return done == 4 })
	if done != 4 {
		t.Fatal("reads incomplete")
	}
	if last > 100 {
		t.Fatalf("4-bank parallel reads took %d cycles; banks not overlapping", last)
	}
}

func TestWriteDrainWatermarks(t *testing.T) {
	t.Parallel()
	c := newCtl()
	// Fill the write queue past the high watermark; ticks must drain it
	// below the low watermark before reads resume priority.
	for i := 0; i < drainHigh+4; i++ {
		if !c.EnqueueWrite(uint64(i * 128)) {
			t.Fatalf("write %d rejected", i)
		}
	}
	runUntil(c, 20000, func() bool { return c.PendingWrites() == 0 })
	if c.PendingWrites() != 0 {
		t.Fatalf("writes never drained: %d left", c.PendingWrites())
	}
	if c.Stats.Writes == 0 {
		t.Fatal("no write commands issued")
	}
}

func TestWriteCoalescing(t *testing.T) {
	t.Parallel()
	c := newCtl()
	c.EnqueueWrite(64)
	c.EnqueueWrite(64)
	if c.PendingWrites() != 1 {
		t.Fatalf("duplicate writebacks must coalesce, queue=%d", c.PendingWrites())
	}
}

func TestReadForwardsFromWriteQueue(t *testing.T) {
	t.Parallel()
	c := newCtl()
	c.EnqueueWrite(64)
	var done int64 = -1
	c.EnqueueRead(64, func(at int64) { done = at })
	runUntil(c, 10, func() bool { return done >= 0 })
	if done < 0 || done > 3 {
		t.Fatalf("forwarded read completed at %d, want ~1", done)
	}
}

func TestQueueCapacity(t *testing.T) {
	t.Parallel()
	c := newCtl()
	for i := 0; i < ReadQueueSize; i++ {
		if !c.EnqueueRead(uint64(i*8192*128), func(int64) {}) {
			t.Fatalf("read %d rejected early", i)
		}
	}
	if c.EnqueueRead(1<<30, func(int64) {}) {
		t.Fatal("read accepted beyond capacity")
	}
	if !runUntil(c, 100000, c.Idle) {
		t.Fatal("controller never drained")
	}
}

func TestRefreshHappens(t *testing.T) {
	t.Parallel()
	c := newCtl()
	for i := int64(0); i < int64(dram.DDR4_3200().TREFI)*3; i++ {
		c.Tick()
	}
	// 2 ranks x ~2-3 refreshes each.
	if c.Stats.Refreshes < 4 {
		t.Fatalf("refreshes = %d", c.Stats.Refreshes)
	}
}

func TestRefreshDelaysReads(t *testing.T) {
	t.Parallel()
	// A read arriving during tRFC waits for the rank to recover. With
	// staggered refresh, rank 0 (line address 0) first refreshes at
	// tREFI/2.
	c := newCtl()
	tm := dram.DDR4_3200()
	first := tm.TREFI / 2
	for i := 0; i < first+1; i++ {
		c.Tick()
	}
	var done int64 = -1
	c.EnqueueRead(0, func(at int64) { done = at })
	runUntil(c, int64(tm.TRFC)+200, func() bool { return done >= 0 })
	if done < 0 {
		t.Fatal("read never completed")
	}
	if done-int64(first) < int64(tm.TRFC)/2 {
		t.Fatalf("read completed at %d, expected to wait out much of tRFC after %d", done, first)
	}
}

func TestThroughputApproachesBusLimit(t *testing.T) {
	t.Parallel()
	// A long row-hit stream should keep the data bus nearly saturated:
	// one burst per tCCD.
	c := newCtl()
	completed := 0
	issued := 0
	var lastDone int64
	feed := func() {
		for c.CanAcceptRead() && issued < 512 {
			line := uint64(issued) // sequential: same row, walks columns/banks
			if !c.EnqueueRead(line, func(at int64) { completed++; lastDone = at }) {
				return
			}
			issued++
		}
	}
	for i := 0; i < 50000 && completed < 512; i++ {
		feed()
		c.Tick()
	}
	if completed != 512 {
		t.Fatalf("only %d completions", completed)
	}
	cyclesPerLine := float64(lastDone) / 512
	if cyclesPerLine > 8 {
		t.Fatalf("%.1f cycles per line; sequential stream should approach the %d-cycle burst rate",
			cyclesPerLine, dram.DDR4_3200().TCCD)
	}
	if hr := c.Stats.RowHitRate(); hr < 0.9 {
		t.Fatalf("sequential stream row-hit rate %.2f", hr)
	}
}

func TestNoStarvationUnderMixedLoad(t *testing.T) {
	t.Parallel()
	// Interleaved reads and writes across rows must all finish.
	c := newCtl()
	m := dram.NewMapper(dram.Table2Geometry)
	completed := 0
	want := 0
	for i := 0; i < 200; i++ {
		addr := m.Encode(dram.Coord{Rank: i % 2, Bank: i % 16, Row: i * 37 % 65536, Col: i % 128})
		if i%3 == 0 {
			for !c.EnqueueWrite(addr) {
				c.Tick()
			}
		} else {
			want++
			for !c.EnqueueRead(addr, func(int64) { completed++ }) {
				c.Tick()
			}
		}
		c.Tick()
		c.Tick()
	}
	runUntil(c, 200000, func() bool { return completed == want && c.Idle() })
	if completed != want || !c.Idle() {
		t.Fatalf("completed %d/%d, idle=%v", completed, want, c.Idle())
	}
}

// The controller's steady state — token reads and writebacks enqueued,
// scheduled, issued, and completed, through refreshes and drain-mode
// switches — must not allocate: requests are recycled through the free
// list and every queue has reached its working capacity after warm-up.
func TestSteadyStateZeroAllocs(t *testing.T) {
	c := newCtl()
	sink := &countingSink{}
	c.SetCompletionSink(sink)
	var line, token uint64
	step := func() {
		// A sequential reader that jumps rows every 64 lines (row hits
		// and conflicts across banks) plus a writeback every fourth line.
		if c.CanAcceptRead() {
			c.EnqueueReadToken(line, token)
			token++
		}
		if line%4 == 0 && c.CanAcceptWrite() {
			c.EnqueueWrite(line + 1<<22)
		}
		if line++; line%64 == 0 {
			line += 1 << 14
		}
		c.Tick()
	}
	for i := 0; i < 30000; i++ {
		step()
	}
	done, writes, refreshes := sink.done, c.Stats.Writes, c.Stats.Refreshes
	// AllocsPerRun truncates to whole allocations per run, so each run is
	// a batch of ticks: one allocation per batch still fails.
	const batch = 1000
	if n := testing.AllocsPerRun(20, func() {
		for i := 0; i < batch; i++ {
			step()
		}
	}); n != 0 {
		t.Fatalf("steady-state enqueue/Tick allocates %.0f objects per %d ticks, want 0", n, batch)
	}
	if sink.done == done || c.Stats.Writes == writes || c.Stats.Refreshes == refreshes {
		t.Fatalf("measured ticks too quiet: %d reads completed, %d writes, %d refreshes",
			sink.done-done, c.Stats.Writes-writes, c.Stats.Refreshes-refreshes)
	}
}
