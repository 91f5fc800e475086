package memctrl

import (
	"math/rand/v2"
	"testing"

	"safeguard/internal/dram"
)

// rowHasHitsQueued is the reference definition of the row-hit count: does
// the queue still target the bank's open row? FR-FCFS keeps a row open
// while same-direction hits remain anywhere in the active queue (not only
// inside the FCFS window). The controller keeps bankState.queuedHits
// instead of scanning; this scan is the oracle it must agree with.
func rowHasHitsQueued(queue []*request, coord dram.Coord, openRow int) bool {
	return countRowHits(queue, coord, openRow) > 0
}

// countRowHits counts the queued requests targeting (coord's bank, row).
func countRowHits(queue []*request, coord dram.Coord, row int) int32 {
	var n int32
	for _, r := range queue {
		if r.coord.Rank == coord.Rank && r.coord.Bank == coord.Bank && r.coord.Row == row {
			n++
		}
	}
	return n
}

// checkRowHitCounts fails the test unless every bank's queuedHits equals
// the oracle scan of both queues.
func checkRowHitCounts(t *testing.T, c *Controller, step int) {
	t.Helper()
	for rk := range c.banks {
		for bk := range c.banks[rk] {
			bank := &c.banks[rk][bk]
			coord := dram.Coord{Rank: rk, Bank: bk}
			for q, queue := range [2][]*request{c.readQ, c.writeQ} {
				var want int32
				if bank.openRow != -1 {
					want = countRowHits(queue, coord, bank.openRow)
					if (bank.queuedHits[q] > 0) != rowHasHitsQueued(queue, coord, bank.openRow) {
						t.Fatalf("step %d bank %d/%d queue %d: count %d disagrees with the scan",
							step, rk, bk, q, bank.queuedHits[q])
					}
				}
				if bank.queuedHits[q] != want {
					t.Fatalf("step %d bank %d/%d queue %d (open row %d): queuedHits %d, scan %d",
						step, rk, bk, q, bank.openRow, bank.queuedHits[q], want)
				}
			}
		}
	}
}

// countingSink accepts token-routed completions.
type countingSink struct{ done int }

func (s *countingSink) OnReadDone(uint64, int64) { s.done++ }

// oracleRig is one controller under the randomized row-hit oracle.
type oracleRig struct {
	c    *Controller
	sink *countingSink
}

func newOracleRig(t *testing.T, fcfs bool, seed uint64) oracleRig {
	t.Helper()
	g := dram.Geometry{Ranks: 2, Banks: 4, RowsPerBank: 64, RowBytes: 1024, LineBytes: 64}
	c := New(g, dram.DDR4_3200())
	c.FCFS = fcfs
	if err := c.ReserveSpareRows(8); err != nil {
		t.Fatal(err)
	}
	// A low threshold makes PARA issue victim-row refreshes often.
	p, err := NewMitigationPlugin("para", 16, seed)
	if err != nil {
		t.Fatal(err)
	}
	c.AttachPlugin(p)
	sink := &countingSink{}
	c.SetCompletionSink(sink)
	return oracleRig{c: c, sink: sink}
}

// TestRowHitCountsMatchScan drives seeded random traffic — reads and
// writes over a few hot rows, refreshes, PARA victim-row refreshes, row
// retirements — and checks after every Tick that the incremental row-hit
// counts equal the full-queue scan, with FCFS off and on. Halfway through
// it checkpoints into a fresh controller and keeps driving both: the
// restored counts must match the scan and the two runs must stay
// identical.
func TestRowHitCountsMatchScan(t *testing.T) {
	t.Parallel()
	for _, fcfs := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			a := newOracleRig(t, fcfs, seed)
			rigs := []oracleRig{a}
			rng := rand.New(rand.NewPCG(seed, 99))
			const steps, cut = 40000, 20000
			lines := uint64(a.c.geom.TotalBytes() / 64)
			var token uint64
			retired, doneAtCut := 0, 0
			for step := 0; step < steps; step++ {
				if step == cut {
					st, err := a.c.SaveState()
					if err != nil {
						t.Fatalf("SaveState: %v", err)
					}
					b := newOracleRig(t, fcfs, seed)
					if err := b.c.RestoreState(st); err != nil {
						t.Fatalf("RestoreState: %v", err)
					}
					checkRowHitCounts(t, b.c, step)
					rigs = append(rigs, b)
					doneAtCut = a.sink.done
				}
				// Mostly a few hot rows (row hits and conflicts), some
				// uniformly random lines.
				line := uint64(rng.IntN(64))
				if rng.IntN(4) == 0 {
					line = rng.Uint64N(lines)
				}
				op := rng.IntN(10)
				retire := rng.IntN(3000) == 0 && retired < 8
				var rk, bk, row int
				if retire {
					// Retire the bank's open row when it has one, so the
					// retirement closes a row that queued requests target.
					rk, bk, row = rng.IntN(2), rng.IntN(4), rng.IntN(48)
					if open := a.c.banks[rk][bk].openRow; open >= 0 && open < 48 {
						row = open
					}
					retired++
				}
				for _, r := range rigs {
					switch {
					case op < 4:
						r.c.EnqueueReadToken(line, token)
					case op < 6:
						r.c.EnqueueWrite(line)
					}
					if retire {
						// A row already retired is an error; either way
						// the open row must not change behind the count.
						_, _ = r.c.RetireRow(rk, bk, row)
					}
					r.c.Tick()
					checkRowHitCounts(t, r.c, step)
				}
				token++
			}
			st := a.c.Stats
			if st.Refreshes == 0 || st.VRRs == 0 || st.RowsRetired == 0 || st.RowHits == 0 || st.RowMisses == 0 {
				t.Fatalf("fcfs=%v seed %d: traffic missed a case: %+v", fcfs, seed, st)
			}
			if b := rigs[1]; b.c.Stats != st || b.sink.done != a.sink.done-doneAtCut {
				t.Fatalf("fcfs=%v seed %d: restored run diverged (%d vs %d completions after the cut):\nref      %+v\nrestored %+v",
					fcfs, seed, a.sink.done-doneAtCut, b.sink.done, st, b.c.Stats)
			}
		}
	}
}

// RestoreState rebuilds the row-hit counts from the queued requests, so a
// request naming a bank outside the geometry must be rejected up front.
func TestRestoreRejectsOutOfGeometryRequest(t *testing.T) {
	t.Parallel()
	a := newOracleRig(t, false, 1)
	a.c.EnqueueReadToken(0, 1)
	a.c.EnqueueWrite(64)
	for _, tamper := range []func(st *ControllerState){
		func(st *ControllerState) { st.ReadQ[0].Coord.Rank = 2 },
		func(st *ControllerState) { st.WriteQ[0].Coord.Bank = -1 },
	} {
		st, err := a.c.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		tamper(st)
		if err := newOracleRig(t, false, 1).c.RestoreState(st); err == nil {
			t.Error("request outside the geometry restored without error")
		}
	}
}

// Under FCFS a row hit queued beyond the in-order window must not defer
// the window's precharge: the hit cannot issue before the window drains,
// so deferring to it would stall the bank until a refresh closed the row.
// Four reads to row 2 fill the window behind an open row 1; a fifth read,
// to row 1, sits outside it. Every read must complete long before the
// first refresh.
func TestFCFSOutOfWindowHitDoesNotBlockPrecharge(t *testing.T) {
	t.Parallel()
	c := newCtl()
	c.FCFS = true
	line := func(row, col int) uint64 { return lineFor(0, 0, row, col) }
	done := 0
	count := func(int64) { done++ }
	c.EnqueueRead(line(1, 0), count)
	if !runUntil(c, 200, func() bool { return done == 1 }) {
		t.Fatal("opening read never completed")
	}
	for col := 0; col < fcfsWindow; col++ {
		c.EnqueueRead(line(2, col), count)
	}
	c.EnqueueRead(line(1, 1), count)
	if bank := &c.banks[0][0]; bank.openRow != 1 || bank.queuedHits[0] != 1 {
		t.Fatalf("setup: open row %d with %d queued hits, want row 1 with 1", bank.openRow, bank.queuedHits[0])
	}
	if !runUntil(c, 1000, func() bool { return done == 2+fcfsWindow }) {
		t.Fatalf("FCFS window stalled behind an out-of-window hit: %d of %d reads done by cycle %d (refreshes %d)",
			done, 2+fcfsWindow, c.Now(), c.Stats.Refreshes)
	}
	if c.Stats.Refreshes != 0 {
		t.Fatalf("a refresh ran before the reads drained (%d); the test no longer isolates the precharge rule", c.Stats.Refreshes)
	}
}
