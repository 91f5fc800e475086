package memctrl

import (
	"fmt"
	"reflect"
	"testing"

	"safeguard/internal/dram"
)

// Twin-drive harness: run the same scripted request stream through two
// identical controllers — one ticked every cycle, one advanced with
// NextEventAt/AdvanceTo — and demand identical observable behaviour:
// completion stream, Stats, queue occupancy, and final clock.

type schedOp struct {
	at    int64
	write bool
	vrr   bool
	line  uint64
}

type twinResult struct {
	log     []string
	stats   Stats
	now     int64
	pending [3]int // reads, writes, VRRs still queued at the horizon
}

func driveScheduled(c *Controller, ops []schedOp, horizon int64, skip bool) twinResult {
	var res twinResult
	enqueue := func(op schedOp) {
		switch {
		case op.vrr:
			coord := dram.NewMapper(dram.Table2Geometry).Decode(op.line)
			ok := c.EnqueueVRR(coord.Rank, coord.Bank, coord.Row)
			res.log = append(res.log, fmt.Sprintf("vrr@%d ok=%v", c.Now(), ok))
		case op.write:
			ok := c.EnqueueWrite(op.line)
			res.log = append(res.log, fmt.Sprintf("wr %d@%d ok=%v", op.line, c.Now(), ok))
		default:
			line := op.line
			ok := c.EnqueueRead(line, func(done int64) {
				res.log = append(res.log, fmt.Sprintf("done %d@%d", line, done))
			})
			res.log = append(res.log, fmt.Sprintf("rd %d@%d ok=%v", line, c.Now(), ok))
		}
	}
	i := 0
	for c.Now() < horizon {
		now := c.Now()
		for i < len(ops) && ops[i].at <= now {
			enqueue(ops[i])
			i++
		}
		if skip {
			stop := c.NextEventAt() - 1
			if i < len(ops) && ops[i].at < stop {
				stop = ops[i].at
			}
			if stop > horizon {
				stop = horizon
			}
			if stop > now {
				c.AdvanceTo(stop)
				continue
			}
		}
		c.Tick()
	}
	res.stats = c.Stats
	res.now = c.Now()
	res.pending = [3]int{c.PendingReads(), c.PendingWrites(), c.PendingVRRs()}
	return res
}

func assertTwinsAgree(t *testing.T, ops []schedOp, horizon int64, mkGate func() Plugin) {
	t.Helper()
	build := func() *Controller {
		c := New(dram.Table2Geometry, dram.DDR4_3200())
		if mkGate != nil {
			c.AttachPlugin(mkGate())
		}
		return c
	}
	cycle := driveScheduled(build(), ops, horizon, false)
	event := driveScheduled(build(), ops, horizon, true)
	if !reflect.DeepEqual(cycle.log, event.log) {
		max := len(cycle.log)
		if len(event.log) > max {
			max = len(event.log)
		}
		for i := 0; i < max; i++ {
			var a, b string
			if i < len(cycle.log) {
				a = cycle.log[i]
			}
			if i < len(event.log) {
				b = event.log[i]
			}
			if a != b {
				t.Fatalf("logs diverge at %d: cycle=%q event=%q", i, a, b)
			}
		}
	}
	if cycle.stats != event.stats {
		t.Fatalf("stats diverge:\ncycle=%+v\nevent=%+v", cycle.stats, event.stats)
	}
	if cycle.now != event.now || cycle.pending != event.pending {
		t.Fatalf("final state diverges: cycle now=%d pending=%v, event now=%d pending=%v",
			cycle.now, cycle.pending, event.now, event.pending)
	}
}

func lineFor(rank, bank, row, col int) uint64 {
	return dram.NewMapper(dram.Table2Geometry).Encode(dram.Coord{Rank: rank, Bank: bank, Row: row, Col: col})
}

// TestTimeWheelIdleSkipsToRefresh: an idle controller's only event is
// the next rank refresh, so the wheel must offer a multi-thousand-cycle
// jump, never past that refresh.
func TestTimeWheelIdleSkipsToRefresh(t *testing.T) {
	t.Parallel()
	c := New(dram.Table2Geometry, dram.DDR4_3200())
	next := c.NextEventAt()
	if next <= c.Now()+1 {
		t.Fatalf("idle controller reports next event at %d (now %d): no skip possible", next, c.Now())
	}
	var firstRefresh int64 = int64(dram.DDR4_3200().TREFI)
	if next > firstRefresh {
		t.Fatalf("NextEventAt = %d skips past the first refresh at %d", next, firstRefresh)
	}
	c.AdvanceTo(next - 1)
	refsBefore := c.Stats.Refreshes
	c.Tick()
	for i := 0; i < 8 && c.Stats.Refreshes == refsBefore; i++ {
		// The wheel may stop at the earliest rank's boundary, a handful
		// of conservative cycles before the refresh actually fires.
		c.Tick()
	}
	if c.Stats.Refreshes == refsBefore {
		t.Fatalf("no refresh fired near the predicted event at %d (now %d)", next, c.Now())
	}
}

// TestTimeWheelTwinBasicTraffic: mixed reads/writes with row hits,
// conflicts, and bank parallelism behave identically under skips.
func TestTimeWheelTwinBasicTraffic(t *testing.T) {
	t.Parallel()
	ops := []schedOp{
		{at: 0, line: lineFor(0, 0, 5, 0)},
		{at: 0, line: lineFor(0, 0, 5, 8)}, // row hit
		{at: 2, line: lineFor(0, 0, 9, 0)}, // row conflict
		{at: 4, line: lineFor(1, 3, 2, 0)}, // bank parallelism
		{at: 300, write: true, line: lineFor(0, 1, 4, 0)},
		{at: 301, line: lineFor(0, 1, 4, 0)}, // write forward
		{at: 9000, line: lineFor(1, 7, 42, 0)},
		{at: 40_000, line: lineFor(0, 2, 8, 0)}, // crosses a refresh
	}
	assertTwinsAgree(t, ops, 60_000, nil)
}

// TestTimeWheelTwinWriteDrain pushes the write queue through the drain
// watermarks — including the empty-read-queue toggle regime whose drain
// flag flips every cycle, the parity AdvanceTo must emulate.
func TestTimeWheelTwinWriteDrain(t *testing.T) {
	t.Parallel()
	var ops []schedOp
	// A small write backlog with no reads: the drain flag oscillates.
	for i := 0; i < 10; i++ {
		ops = append(ops, schedOp{at: int64(i), write: true, line: lineFor(0, i%16, 3, 0)})
	}
	// Reads arriving at odd/even offsets later catch any parity slip.
	ops = append(ops,
		schedOp{at: 1501, line: lineFor(0, 4, 77, 0)},
		schedOp{at: 1502, line: lineFor(1, 5, 78, 0)},
	)
	// A heavy drain burst crosses drainHigh.
	for i := 0; i < drainHigh+8; i++ {
		ops = append(ops, schedOp{at: 3000 + int64(i), write: true, line: lineFor(i%2, i%16, 100+i, 0)})
	}
	assertTwinsAgree(t, ops, 30_000, nil)
}

// TestTimeWheelTwinVRRs: victim-row refreshes (including one forcing a
// precharge of an open row) progress identically under skips.
func TestTimeWheelTwinVRRs(t *testing.T) {
	t.Parallel()
	ops := []schedOp{
		{at: 0, line: lineFor(0, 2, 11, 0)},              // opens row 11
		{at: 40, vrr: true, line: lineFor(0, 2, 900, 0)}, // must close it first
		{at: 41, vrr: true, line: lineFor(1, 6, 901, 0)},
		{at: 42, line: lineFor(0, 2, 11, 8)}, // yields to the pending VRR
	}
	assertTwinsAgree(t, ops, 20_000, nil)
}

// windowGate denies every ACT to one bank until a fixed cycle — a
// deterministic stand-in for BlockHammer-style throttling.
type windowGate struct {
	until int64
}

func (g *windowGate) Name() string                            { return "window-gate" }
func (g *windowGate) OnCommand(Command, int, int, int, int64) {}
func (g *windowGate) DrainStats() PluginStats                 { return nil }
func (g *windowGate) AllowAct(rank, bank, row int, cycle int64) bool {
	return !(rank == 0 && bank == 0 && cycle < g.until)
}

// TestTimeWheelGateDenialIdentity: a sustained ActGate denial pins the
// wheel to per-cycle stepping (denials have side effects), so the
// denial stream, its Stats, and the eventual issue cycle are identical
// under the two drivers.
func TestTimeWheelGateDenialIdentity(t *testing.T) {
	t.Parallel()
	ops := []schedOp{
		{at: 0, line: lineFor(0, 0, 7, 0)}, // gated until cycle 2000
		{at: 1, line: lineFor(0, 4, 9, 0)}, // ungated bank proceeds
	}
	assertTwinsAgree(t, ops, 12_000, func() Plugin { return &windowGate{until: 2000} })
}
