// Row retirement: the controller-side cost model for the response
// pipeline's retire stage. A reserved spare region at the top of every
// bank receives retired rows; subsequent accesses to a retired row are
// remapped through an indirection table, paying a lookup penalty on the
// data return. Retirement therefore costs capacity (the spare region is
// carved out of the usable rows) and latency (the remap penalty), which
// is what keeps it an escalation step rather than a free fix.
package memctrl

import (
	"fmt"

	"safeguard/internal/dram"
	"safeguard/internal/telemetry"
)

// DefaultRemapPenalty is the extra MC cycles a remapped access pays for
// the indirection-table lookup on its data return.
const DefaultRemapPenalty = 4

type rowKey struct {
	rank, bank, row int
}

// ReserveSpareRows sets aside the top n rows of every bank as the spare
// region backing row retirement. Normal traffic never maps there (the
// address mapper covers the full row range, so callers running real
// workloads should treat the spare region as capacity lost to sparing).
// Calling it again resets the spare accounting.
func (c *Controller) ReserveSpareRows(n int) error {
	if n < 0 || n >= c.geom.RowsPerBank {
		return fmt.Errorf("memctrl: %d spare rows out of range for %d rows per bank", n, c.geom.RowsPerBank)
	}
	c.spareRows = n
	c.spareUsed = make([][]int, c.geom.Ranks)
	for r := range c.spareUsed {
		c.spareUsed[r] = make([]int, c.geom.Banks)
	}
	c.remap = make(map[rowKey]int)
	return nil
}

// SpareRowsLeft returns the unused spare rows of one bank (0 when no
// spare region is reserved).
func (c *Controller) SpareRowsLeft(rank, bank int) int {
	if c.spareUsed == nil || rank < 0 || rank >= len(c.spareUsed) ||
		bank < 0 || bank >= len(c.spareUsed[rank]) {
		return 0
	}
	return c.spareRows - c.spareUsed[rank][bank]
}

// RetireRow remaps a row into its bank's spare region and returns the
// spare row now backing it. Requires ReserveSpareRows first; fails when
// the coordinates are out of range, the row is already retired (or is
// itself a spare), or the bank's spare region is exhausted.
func (c *Controller) RetireRow(rank, bank, row int) (int, error) {
	if c.spareUsed == nil {
		return 0, fmt.Errorf("memctrl: no spare region reserved (call ReserveSpareRows)")
	}
	if rank < 0 || rank >= c.geom.Ranks || bank < 0 || bank >= c.geom.Banks ||
		row < 0 || row >= c.geom.RowsPerBank {
		return 0, fmt.Errorf("memctrl: retire of out-of-range row %d/%d/%d", rank, bank, row)
	}
	if row >= c.geom.RowsPerBank-c.spareRows {
		return 0, fmt.Errorf("memctrl: row %d is inside the spare region", row)
	}
	key := rowKey{rank: rank, bank: bank, row: row}
	if _, ok := c.remap[key]; ok {
		return 0, fmt.Errorf("memctrl: row %d/%d/%d already retired", rank, bank, row)
	}
	used := c.spareUsed[rank][bank]
	if used >= c.spareRows {
		return 0, fmt.Errorf("memctrl: bank %d/%d out of spare rows (%d used)", rank, bank, c.spareRows)
	}
	spare := c.geom.RowsPerBank - 1 - used
	c.spareUsed[rank][bank] = used + 1
	c.remap[key] = spare
	c.Stats.RowsRetired++
	c.tel.retired.Inc()
	c.tel.trace.Emit(telemetry.Event{
		Cycle: c.now, Kind: telemetry.EvRetire, Rank: rank, Bank: bank, Row: row, Arg: 1,
	})
	// The physical row closes: whatever was open there is gone after the
	// copy-out to the spare.
	if b := &c.banks[rank][bank]; b.openRow == row {
		b.closeRow()
		c.touch(b)
	}
	return spare, nil
}

// RowRetired reports whether a row has been remapped to a spare.
func (c *Controller) RowRetired(rank, bank, row int) bool {
	_, ok := c.remap[rowKey{rank: rank, bank: bank, row: row}]
	return ok
}

// applyRemap redirects a decoded coordinate through the retirement table.
// Returns whether the access was remapped (and so pays the penalty).
func (c *Controller) applyRemap(coord *dram.Coord) bool {
	if len(c.remap) == 0 {
		return false
	}
	spare, ok := c.remap[rowKey{rank: coord.Rank, bank: coord.Bank, row: coord.Row}]
	if !ok {
		return false
	}
	coord.Row = spare
	c.Stats.RemapHits++
	c.tel.remapHits.Inc()
	return true
}
