// Package memctrl is the cycle-level DDR4 memory controller of the paper's
// Table II configuration: one channel, FR-FCFS scheduling with read
// priority and write-drain watermarks, 64-entry read and write queues,
// per-bank timing state (tRCD/tRP/tCL/tRAS/tWR/tRTP/tCCD), rank-level tRRD
// and tFAW, shared data-bus occupancy with turnaround penalties, and
// periodic refresh (tREFI/tRFC).
//
// The controller is scheme-agnostic: protection schemes add their MAC
// latency and extra metadata traffic at the memory-system layer
// (internal/sim), keeping this model purely about DRAM timing.
package memctrl

import (
	"safeguard/internal/attrib"
	"safeguard/internal/dram"
)

// Queue capacities from Table II.
const (
	ReadQueueSize  = 64
	WriteQueueSize = 64
)

// Write-drain watermarks: switch to writes above High, back to reads below
// Low.
const (
	drainHigh = 48
	drainLow  = 16
)

// fcfsWindow is the in-order scheduling window of the FCFS ablation.
const fcfsWindow = 4

// Request is one line-sized memory command.
type request struct {
	lineAddr  uint64
	coord     dram.Coord
	enqueued  int64
	write     bool
	actIssued bool
	remapped  bool // routed through the retirement indirection table
	callback  func(mcDone int64)
	// Token-routed completion (EnqueueReadToken): hasToken requests
	// complete through the CompletionSink instead of the callback. Tokens
	// are plain data, which is what lets in-flight reads checkpoint.
	token    uint64
	hasToken bool
}

type bankState struct {
	openRow    int
	actReadyAt int64
	rdReadyAt  int64
	wrReadyAt  int64
	preReadyAt int64
	// queuedHits counts the requests in the read ([0]) and write ([1])
	// queue that target openRow: FR-FCFS defers a precharge while the
	// active queue's count is nonzero. Maintained on every enqueue,
	// removal, and open-row change; derived state, so checkpoints
	// rebuild it instead of carrying it.
	queuedHits [2]int32
}

// dir indexes bankState.queuedHits by queue direction.
func dir(write bool) int {
	if write {
		return 1
	}
	return 0
}

// closeRow precharges the bank's open row (if any): no queued request
// targets a closed row.
func (b *bankState) closeRow() {
	b.openRow = -1
	b.queuedHits = [2]int32{}
}

// countQueued adjusts queuedHits for request r joining (delta +1) or
// leaving (delta -1) its queue.
func (c *Controller) countQueued(r *request, delta int32) {
	if bank := &c.banks[r.coord.Rank][r.coord.Bank]; bank.openRow == r.coord.Row {
		bank.queuedHits[dir(r.write)] += delta
	}
}

// setOpenRow opens coord's row on its bank and counts the queued
// requests that target it — the only queue scan left, paid once per
// activation.
func (c *Controller) setOpenRow(bank *bankState, coord dram.Coord) {
	bank.openRow = coord.Row
	bank.queuedHits = [2]int32{}
	for q, queue := range [2][]*request{c.readQ, c.writeQ} {
		for _, r := range queue {
			if r.coord.Rank == coord.Rank && r.coord.Bank == coord.Bank && r.coord.Row == coord.Row {
				bank.queuedHits[q]++
			}
		}
	}
}

type rankState struct {
	lastActAt     int64
	actWindow     [4]int64 // rolling tFAW window
	actWindowPos  int
	nextRefreshAt int64
	// refreshUntil marks the end of the rank's current tRFC blackout
	// (ReadStallClass charges waits inside it to refresh interference).
	refreshUntil int64
}

// Stats aggregates controller activity.
type Stats struct {
	Reads, Writes       uint64
	RowHits, RowMisses  uint64
	SumReadLatencyMC    int64
	MaxReadQueueDepth   int
	ReadQueueFullEvents uint64
	Refreshes           uint64
	// VRRs counts issued victim-row refreshes (plugin-requested);
	// VRRDrops counts requests dropped at a full VRR queue.
	VRRs     uint64
	VRRDrops uint64
	// RowsRetired counts rows remapped into the spare region; RemapHits
	// counts accesses redirected through the retirement table.
	RowsRetired uint64
	RemapHits   uint64
}

// AvgReadLatencyMC returns the mean enqueue-to-data read latency in MC
// cycles.
func (s Stats) AvgReadLatencyMC() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.SumReadLatencyMC) / float64(s.Reads)
}

// RowHitRate returns the fraction of column commands that hit an open row.
func (s Stats) RowHitRate() float64 {
	t := s.RowHits + s.RowMisses
	if t == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(t)
}

// Controller is a single-channel DDR4 controller.
type Controller struct {
	// FCFS disables first-ready (row-hit-first) reordering: only the few
	// oldest requests may be scheduled, in arrival order — the scheduler
	// ablation.
	FCFS bool
	// RemapPenalty is the extra MC cycles a retired-row access pays for
	// the indirection-table lookup (DefaultRemapPenalty unless changed).
	RemapPenalty int64

	tm     dram.Timing
	geom   dram.Geometry
	mapper *dram.Mapper

	readQ  []*request
	writeQ []*request
	// free recycles request structs: a read returns here once its
	// completion has fired, a write once its column command issued.
	free  []*request
	banks [][]bankState
	ranks []rankState

	plugins []Plugin
	gates   []ActGate
	tickers []Ticker
	spanObs []SpanObserver
	vrrQ    []vrrReq

	// Row-retirement state (ReserveSpareRows / RetireRow).
	spareRows int
	spareUsed [][]int
	remap     map[rowKey]int

	busFreeAt    int64
	lastBusWrite bool
	draining     bool

	// completions holds issued reads waiting for their data time.
	completions []pendingCompletion

	// sink receives token-routed read completions (EnqueueReadToken).
	sink CompletionSink

	now int64

	// lastDenied remembers the most recent ActGate denial so
	// ReadStallClass can charge a gated request's wait to the gate
	// rather than to generic DRAM latency.
	lastDenied denialRecord

	tel ctrlTelemetry

	Stats Stats
}

// denialRecord is the coordinates and cycle of one ActGate denial.
type denialRecord struct {
	rank, bank, row int
	at              int64
}

type pendingCompletion struct {
	at  int64
	req *request
}

// New builds a controller for the geometry and timing.
func New(g dram.Geometry, tm dram.Timing) *Controller {
	c := &Controller{tm: tm, geom: g, mapper: dram.NewMapper(g), RemapPenalty: DefaultRemapPenalty}
	c.lastDenied.at = -1 << 30
	c.banks = make([][]bankState, g.Ranks)
	c.ranks = make([]rankState, g.Ranks)
	for r := range c.banks {
		c.banks[r] = make([]bankState, g.Banks)
		for b := range c.banks[r] {
			c.banks[r][b].openRow = -1
		}
		rk := &c.ranks[r]
		// Stagger per-rank refresh so the ranks do not blackout together.
		rk.nextRefreshAt = int64(tm.TREFI) * int64(r+1) / int64(g.Ranks)
		// No ACT has happened yet: rank ACT-spacing windows start far in
		// the past.
		rk.lastActAt = -1 << 30
		for i := range rk.actWindow {
			rk.actWindow[i] = -1 << 30
		}
	}
	return c
}

// Now returns the controller's cycle count.
func (c *Controller) Now() int64 { return c.now }

// CanAcceptRead reports read-queue space.
func (c *Controller) CanAcceptRead() bool { return len(c.readQ) < ReadQueueSize }

// CanAcceptWrite reports write-queue space.
func (c *Controller) CanAcceptWrite() bool { return len(c.writeQ) < WriteQueueSize }

// CompletionSink receives token-routed read completions: OnReadDone fires
// with the MC cycle at which data (including the burst) has arrived,
// exactly once per accepted EnqueueReadToken.
type CompletionSink interface {
	OnReadDone(token uint64, mcDone int64)
}

// SetCompletionSink binds the sink token-routed reads complete through.
// Must be set before the first EnqueueReadToken.
func (c *Controller) SetCompletionSink(s CompletionSink) { c.sink = s }

// EnqueueRead queues a line read; callback fires with the MC cycle at which
// data (including the burst) has arrived. Returns false when the queue is
// full.
func (c *Controller) EnqueueRead(lineAddr uint64, callback func(mcDone int64)) bool {
	return c.enqueueRead(lineAddr, 0, false, callback)
}

// EnqueueReadToken queues a line read identified by a caller token; the
// bound CompletionSink's OnReadDone(token, mcDone) fires in place of a
// callback. Token requests are serializable, so they (unlike callback
// reads) may be in flight across a checkpoint.
func (c *Controller) EnqueueReadToken(lineAddr uint64, token uint64) bool {
	return c.enqueueRead(lineAddr, token, true, nil)
}

// newRequest takes a zeroed request from the free list, or allocates one.
func (c *Controller) newRequest() *request {
	if n := len(c.free); n > 0 {
		r := c.free[n-1]
		c.free = c.free[:n-1]
		return r
	}
	return &request{}
}

// release returns a request no queue or completion references any more.
func (c *Controller) release(r *request) {
	*r = request{}
	c.free = append(c.free, r)
}

func (c *Controller) enqueueRead(lineAddr, token uint64, hasToken bool, callback func(mcDone int64)) bool {
	if len(c.readQ) >= ReadQueueSize {
		c.Stats.ReadQueueFullEvents++
		c.tel.queueFull.Inc()
		return false
	}
	r := c.newRequest()
	r.lineAddr, r.token, r.hasToken, r.callback = lineAddr, token, hasToken, callback
	r.enqueued = c.now
	// Forward from a queued write to the same line: the controller holds
	// the freshest data.
	for _, w := range c.writeQ {
		if w.lineAddr == r.lineAddr {
			c.completions = append(c.completions, pendingCompletion{at: c.now + 1, req: r})
			c.Stats.Reads++
			c.Stats.SumReadLatencyMC++
			c.onReadComplete(1)
			return true
		}
	}
	r.coord = c.mapper.Decode(r.lineAddr)
	r.remapped = c.applyRemap(&r.coord)
	c.readQ = append(c.readQ, r)
	c.countQueued(r, 1)
	if d := len(c.readQ); d > c.Stats.MaxReadQueueDepth {
		c.Stats.MaxReadQueueDepth = d
	}
	c.tel.readDepth.Observe(int64(len(c.readQ)))
	c.tel.maxDepth.SetMax(float64(c.Stats.MaxReadQueueDepth))
	return true
}

// EnqueueWrite queues a line write (writeback). Returns false when full.
func (c *Controller) EnqueueWrite(lineAddr uint64) bool {
	if len(c.writeQ) >= WriteQueueSize {
		return false
	}
	for _, w := range c.writeQ {
		if w.lineAddr == lineAddr {
			return true // coalesce repeated writebacks of one line
		}
	}
	r := c.newRequest()
	r.lineAddr, r.coord, r.enqueued, r.write = lineAddr, c.mapper.Decode(lineAddr), c.now, true
	r.remapped = c.applyRemap(&r.coord)
	c.writeQ = append(c.writeQ, r)
	c.countQueued(r, 1)
	c.tel.writeDepth.Observe(int64(len(c.writeQ)))
	return true
}

// deniedRecently is how many MC cycles an ActGate denial keeps tainting
// a request's stall class. A gated request is denied at most once per
// tick (when it is the scheduling candidate), so a small bridge keeps
// the classification stable between attempts without outliving the gate.
const deniedRecently = 4

// ReadStallClass names the attrib component a queued read is currently
// waiting on, evaluated at the controller's present cycle.
func (c *Controller) ReadStallClass(lineAddr uint64) attrib.Component {
	return c.ReadStallClassAt(lineAddr, c.now)
}

// ReadStallClassAt names the attrib component a queued read is waiting
// on as of MC cycle `at`: refresh/VRR interference when its bank is
// blacked out or yielding to a victim-row refresh, gate latency when an
// ActGate recently denied its activation, and raw DRAM service
// otherwise. Reads not found in the queue (already issued, or
// write-forwarded) are in DRAM service by definition. Called from
// attribution probes on stalled CPU cycles — a linear scan of a
// ≤64-entry queue, no allocation. Taking the cycle explicitly lets the
// event engine replay skipped stall cycles without stepping the
// controller clock: queue membership, refreshUntil, the VRR queue, and
// lastDenied are all frozen across a skipped span, so only the probe
// time varies.
func (c *Controller) ReadStallClassAt(lineAddr uint64, at int64) attrib.Component {
	for _, r := range c.readQ {
		if r.lineAddr != lineAddr {
			continue
		}
		rk := &c.ranks[r.coord.Rank]
		if at < rk.refreshUntil {
			return attrib.CompRefresh
		}
		if len(c.vrrQ) > 0 && c.hasPendingVRR(r.coord.Rank, r.coord.Bank) {
			return attrib.CompRefresh
		}
		d := c.lastDenied
		if at-d.at <= deniedRecently && d.rank == r.coord.Rank &&
			d.bank == r.coord.Bank && d.row == r.coord.Row {
			return attrib.CompGate
		}
		return attrib.CompDRAM
	}
	return attrib.CompDRAM
}

// PendingReads returns the read-queue depth.
func (c *Controller) PendingReads() int { return len(c.readQ) }

// PendingWrites returns the write-queue depth.
func (c *Controller) PendingWrites() int { return len(c.writeQ) }

// Idle reports whether no work is queued or in flight.
func (c *Controller) Idle() bool {
	return len(c.readQ) == 0 && len(c.writeQ) == 0 && len(c.completions) == 0 &&
		len(c.vrrQ) == 0
}

// Tick advances one MC cycle: fire matured completions, start refreshes,
// pick the drain mode, and issue at most one command. Queued victim-row
// refreshes take the command slot ahead of normal traffic.
func (c *Controller) Tick() {
	c.now++
	for _, t := range c.tickers {
		t.OnTick(c.now)
	}
	c.fireCompletions()
	c.refresh()
	if len(c.vrrQ) > 0 && c.issueVRR() {
		return
	}
	c.updateDrainMode()
	queue := c.readQ
	if c.draining {
		queue = c.writeQ
	}
	if len(queue) == 0 {
		if c.draining {
			queue = c.readQ
		} else {
			queue = c.writeQ
		}
	}
	c.schedule(queue)
}

func (c *Controller) fireCompletions() {
	kept := c.completions[:0]
	for _, p := range c.completions {
		if p.at <= c.now {
			switch {
			case p.req.hasToken:
				c.sink.OnReadDone(p.req.token, p.at)
			case p.req.callback != nil:
				p.req.callback(p.at)
			}
			c.release(p.req)
		} else {
			kept = append(kept, p)
		}
	}
	c.completions = kept
}

// refresh blocks a rank for tRFC every tREFI, closing its rows.
func (c *Controller) refresh() {
	for r := range c.ranks {
		rk := &c.ranks[r]
		if c.now < rk.nextRefreshAt {
			continue
		}
		rk.nextRefreshAt += int64(c.tm.TREFI)
		c.Stats.Refreshes++
		c.dispatch(CmdREF, r, -1, -1)
		until := c.now + int64(c.tm.TRFC)
		rk.refreshUntil = until
		for b := range c.banks[r] {
			bank := &c.banks[r][b]
			bank.closeRow()
			if bank.actReadyAt < until {
				bank.actReadyAt = until
			}
		}
	}
}

func (c *Controller) updateDrainMode() {
	if c.draining {
		if len(c.writeQ) <= drainLow || len(c.readQ) >= ReadQueueSize-4 {
			c.draining = false
		}
		return
	}
	if len(c.writeQ) >= drainHigh || (len(c.readQ) == 0 && len(c.writeQ) > 0) {
		c.draining = true
	}
}

// schedule implements FR-FCFS over one queue: first the oldest issuable
// row-hit column command, else progress the oldest request (ACT or PRE).
func (c *Controller) schedule(queue []*request) {
	// Pass 1: row-hit column commands, oldest first. Under FCFS only a
	// small in-order window is eligible for scheduling at all.
	limit := len(queue)
	if c.FCFS && limit > fcfsWindow {
		limit = fcfsWindow
	}
	for i, r := range queue[:limit] {
		bank := &c.banks[r.coord.Rank][r.coord.Bank]
		if len(c.vrrQ) > 0 && c.hasPendingVRR(r.coord.Rank, r.coord.Bank) {
			continue // the bank yields to its pending victim-row refresh
		}
		if bank.openRow == r.coord.Row && c.canIssueColumn(r, bank) {
			c.issueColumn(r, bank)
			c.removeFromQueue(queue, i)
			// A request that needed its own ACT is a row miss; one that
			// found the row open is a hit.
			if r.actIssued {
				c.Stats.RowMisses++
				c.tel.rowMisses.Inc()
			} else {
				c.Stats.RowHits++
				c.tel.rowHits.Inc()
			}
			if r.write {
				c.release(r) // reads release once their completion fires
			}
			return
		}
	}
	// Pass 2: progress requests in age order — activate a precharged
	// bank or precharge a wrong-row bank.
	for _, r := range queue[:limit] {
		bank := &c.banks[r.coord.Rank][r.coord.Bank]
		rank := &c.ranks[r.coord.Rank]
		if len(c.vrrQ) > 0 && c.hasPendingVRR(r.coord.Rank, r.coord.Bank) {
			continue
		}
		if bank.openRow == -1 {
			if c.canActivate(bank, rank) && c.allowAct(r.coord.Rank, r.coord.Bank, r.coord.Row) {
				c.activate(r, bank, rank)
				return
			}
			continue
		}
		// FR-FCFS keeps a row open while same-direction hits remain queued
		// anywhere in the active queue (also beyond the FCFS window). Only
		// the active queue counts: deferring a precharge to hits in the
		// idle queue could stall the active direction indefinitely.
		if bank.openRow != r.coord.Row && c.now >= bank.preReadyAt && bank.queuedHits[dir(r.write)] == 0 {
			bank.closeRow()
			bank.actReadyAt = maxI64(bank.actReadyAt, c.now+int64(c.tm.TRP))
			return
		}
	}
}

func (c *Controller) canActivate(bank *bankState, rank *rankState) bool {
	if c.now < bank.actReadyAt {
		return false
	}
	if c.now < rank.lastActAt+int64(c.tm.TRRD) {
		return false
	}
	// tFAW: the fourth-most-recent ACT must be at least tFAW ago.
	if c.now < rank.actWindow[rank.actWindowPos]+int64(c.tm.TFAW) {
		return false
	}
	return true
}

func (c *Controller) activate(r *request, bank *bankState, rank *rankState) {
	c.setOpenRow(bank, r.coord)
	bank.rdReadyAt = c.now + int64(c.tm.TRCD)
	bank.wrReadyAt = c.now + int64(c.tm.TRCD)
	bank.preReadyAt = c.now + int64(c.tm.TRAS)
	rank.lastActAt = c.now
	rank.actWindow[rank.actWindowPos] = c.now
	rank.actWindowPos = (rank.actWindowPos + 1) & 3
	r.actIssued = true
	c.dispatch(CmdACT, r.coord.Rank, r.coord.Bank, r.coord.Row)
}

func (c *Controller) canIssueColumn(r *request, bank *bankState) bool {
	if r.write {
		if c.now < bank.wrReadyAt {
			return false
		}
		dataStart := c.now + int64(c.tm.TCWL)
		return dataStart >= c.busNeed(true)
	}
	if c.now < bank.rdReadyAt {
		return false
	}
	dataStart := c.now + int64(c.tm.TCL)
	return dataStart >= c.busNeed(false)
}

// busNeed returns the earliest data-start time the shared bus allows for
// the given direction.
func (c *Controller) busNeed(write bool) int64 {
	t := c.busFreeAt
	if write != c.lastBusWrite {
		if write {
			t += int64(c.tm.TRTW)
		} else {
			t += int64(c.tm.TWTR)
		}
	}
	return t
}

func (c *Controller) issueColumn(r *request, bank *bankState) {
	if r.write {
		dataStart := c.now + int64(c.tm.TCWL)
		dataEnd := dataStart + int64(c.tm.TBURST)
		c.busFreeAt = dataEnd
		c.lastBusWrite = true
		bank.wrReadyAt = c.now + int64(c.tm.TCCD)
		bank.rdReadyAt = maxI64(bank.rdReadyAt, dataEnd+int64(c.tm.TWTR))
		bank.preReadyAt = maxI64(bank.preReadyAt, dataEnd+int64(c.tm.TWR))
		c.Stats.Writes++
		c.dispatch(CmdWR, r.coord.Rank, r.coord.Bank, r.coord.Row)
		return
	}
	dataStart := c.now + int64(c.tm.TCL)
	dataEnd := dataStart + int64(c.tm.TBURST)
	c.busFreeAt = dataEnd
	c.lastBusWrite = false
	bank.rdReadyAt = c.now + int64(c.tm.TCCD)
	bank.preReadyAt = maxI64(bank.preReadyAt, c.now+int64(c.tm.TRTP))
	c.Stats.Reads++
	done := dataEnd
	if r.remapped {
		done += c.RemapPenalty
	}
	c.Stats.SumReadLatencyMC += done - r.enqueued
	c.onReadComplete(done - r.enqueued)
	c.completions = append(c.completions, pendingCompletion{at: done, req: r})
	c.dispatch(CmdRD, r.coord.Rank, r.coord.Bank, r.coord.Row)
}

// removeFromQueue deletes entry i of the queue the request came from;
// reads only ever live in readQ and writes in writeQ, so the request's kind
// selects the slice (queue aliases one of them).
func (c *Controller) removeFromQueue(queue []*request, i int) {
	c.countQueued(queue[i], -1)
	if queue[i].write {
		c.writeQ = append(c.writeQ[:i], c.writeQ[i+1:]...)
	} else {
		c.readQ = append(c.readQ[:i], c.readQ[i+1:]...)
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
