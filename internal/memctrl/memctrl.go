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
	"slices"

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
	lineAddr uint64
	coord    dram.Coord
	// bank is coord's bank state, set when the request joins a queue
	// (after any remap) and cleared by release. c.banks is allocated once
	// and retirement remaps only rows, so the pointer never goes stale.
	bank *bankState
	// seq stamps the request's arrival: queue order is seq order, which
	// is how the per-bank scheduler walk recovers the queue's age order.
	seq       uint64
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
	// col and act are lower bounds on the bank's bankBounds per queue
	// direction, exact when last computed. Every change that can lower
	// a bound recomputes them (touch); changes that only raise one leave
	// them low until the scheduler's walk recomputes them.
	col, act [2]int64
	openRow  int
	// queuedHits counts the requests in the read ([0]) and write ([1])
	// queue that target openRow: FR-FCFS defers a precharge while the
	// active queue's count is nonzero. Maintained on every enqueue,
	// removal, and open-row change; derived state, so checkpoints
	// rebuild it instead of carrying it.
	queuedHits [2]int32
	// rank and idx locate the bank in Controller.banks.
	rank, idx int

	actReadyAt int64
	rdReadyAt  int64
	wrReadyAt  int64
	preReadyAt int64
	// queued holds the bank's requests in the read ([0]) and write ([1])
	// queue, oldest first, and busyPos the bank's slot in
	// Controller.busy while its list is non-empty. Derived state, rebuilt
	// on restore like queuedHits (and like col/act).
	queued  [2][]*request
	busyPos [2]int
}

// dir indexes bankState.queuedHits by queue direction.
func dir(write bool) int {
	if write {
		return 1
	}
	return 0
}

// closeRow precharges the bank's open row (if any): no queued request
// targets a closed row. The cached bounds drop to 0, a lower bound of
// anything, until the caller's touch recomputes them.
func (b *bankState) closeRow() {
	b.openRow = -1
	b.queuedHits = [2]int32{}
	b.col, b.act = [2]int64{}, [2]int64{}
}

// countQueued adjusts queuedHits for request r joining (delta +1) or
// leaving (delta -1) its queue.
func (c *Controller) countQueued(r *request, delta int32) {
	if r.bank.openRow == r.coord.Row {
		r.bank.queuedHits[dir(r.write)] += delta
	}
}

// enqueue appends a decoded request to its queue, binding its bank.
func (c *Controller) enqueue(r *request) {
	r.bank = &c.banks[r.coord.Rank][r.coord.Bank]
	if r.write {
		c.writeQ = append(c.writeQ, r)
	} else {
		c.readQ = append(c.readQ, r)
	}
	c.link(r)
}

// link stamps a request that just joined the tail of its queue and
// appends it to its bank's list, marking the bank busy in its direction.
func (c *Controller) link(r *request) {
	c.seq++
	r.seq = c.seq
	b, d := r.bank, dir(r.write)
	if len(b.queued[d]) == 0 {
		b.busyPos[d] = len(c.busy[d])
		c.busy[d] = append(c.busy[d], b)
	}
	b.queued[d] = append(b.queued[d], r)
	c.countQueued(r, 1)
	c.touch(b)
}

// unlink removes a request leaving its queue from its bank's list; a
// bank whose list empties leaves the busy set.
func (c *Controller) unlink(r *request) {
	c.countQueued(r, -1)
	b, d := r.bank, dir(r.write)
	q := b.queued[d]
	for i, x := range q {
		if x == r {
			q = append(q[:i], q[i+1:]...)
			break
		}
	}
	b.queued[d] = q
	if len(q) > 0 {
		return
	}
	busy := c.busy[d]
	last := busy[len(busy)-1]
	busy[b.busyPos[d]] = last
	last.busyPos[d] = b.busyPos[d]
	c.busy[d] = busy[:len(busy)-1]
}

// setOpenRow opens coord's row on its bank and counts the bank's queued
// requests that target it.
func (c *Controller) setOpenRow(bank *bankState, coord dram.Coord) {
	bank.openRow = coord.Row
	for d, q := range bank.queued {
		var n int32
		for _, r := range q {
			if r.coord.Row == coord.Row {
				n++
			}
		}
		bank.queuedHits[d] = n
	}
}

// bankBounds returns the first cycles at which FR-FCFS could act on a
// busy bank for direction d: col for a row-hit column command (bank
// timing only; the shared bus is checked on its own) and act for pass 2
// (activate a closed bank, or precharge a wrong-row bank no queued hit
// defers). Each is farFuture when that pass has nothing to do there: an
// open bank with queued hits only issues them, one without only
// precharges. ActGate decisions and VRR yielding are not part of the
// bounds: a gate-denied bank still has act <= now, so the walk keeps
// visiting it and the gate keeps seeing every attempt.
func (c *Controller) bankBounds(b *bankState, d int) (col, act int64) {
	switch {
	case b.openRow == -1:
		return farFuture, c.activateReadyAt(b, &c.ranks[b.rank])
	case b.queuedHits[d] > 0:
		return b.columnReadyAt(d == 1), farFuture
	}
	return farFuture, b.preReadyAt
}

// touch recomputes a bank's cached bounds after anything that may have
// lowered them, folding them into the per-direction minima colAt and
// actAt. Changes that only raise a bound (a rank's ACT spacing after
// another bank's activation) need no touch: the caches are lower
// bounds, refreshed exactly by the next walk that reaches them.
func (c *Controller) touch(b *bankState) {
	for d := range b.queued {
		if len(b.queued[d]) == 0 {
			continue
		}
		col, act := c.bankBounds(b, d)
		b.col[d], b.act[d] = col, act
		c.colAt[d] = min(c.colAt[d], col)
		c.actAt[d] = min(c.actAt[d], act)
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
	// busy lists the banks with requests queued in the read ([0]) and
	// write ([1]) direction, in no particular order. colAt and actAt
	// are per-direction lower bounds on the earliest bankBounds over
	// those banks: until one of them is reached the FR-FCFS walk has
	// nothing to do. seq is the last arrival stamp handed out.
	busy         [2][]*bankState
	colAt, actAt [2]int64
	seq          uint64
	// ready is the pass-2 walk's scratch list of candidate banks.
	ready []readyBank
	// free recycles request structs: a read returns here once its
	// completion has fired, a write once its column command issued.
	free  []*request
	banks [][]bankState
	ranks []rankState

	plugins []Plugin
	gates   []ActGate
	vrrQ    []vrrReq

	// Row-retirement state (ReserveSpareRows / RetireRow).
	spareRows int
	spareUsed [][]int
	remap     map[rowKey]int

	busFreeAt    int64
	lastBusWrite bool
	draining     bool

	// completions holds issued reads waiting for their data time, and
	// nextDone the earliest of their times (farFuture when none).
	completions []pendingCompletion
	nextDone    int64

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
	c := &Controller{tm: tm, geom: g, mapper: dram.NewMapper(g), RemapPenalty: DefaultRemapPenalty,
		colAt: [2]int64{farFuture, farFuture}, actAt: [2]int64{farFuture, farFuture}, nextDone: farFuture}
	c.lastDenied.at = -1 << 30
	c.banks = make([][]bankState, g.Ranks)
	c.ranks = make([]rankState, g.Ranks)
	for r := range c.banks {
		c.banks[r] = make([]bankState, g.Banks)
		for b := range c.banks[r] {
			c.banks[r][b] = bankState{openRow: -1, rank: r, idx: b}
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
	r.coord = c.mapper.Decode(r.lineAddr)
	// Forward from a queued write to the same line: the controller holds
	// the freshest data.
	if c.writeQueued(lineAddr, r.coord) {
		c.addCompletion(c.now+1, r)
		c.Stats.Reads++
		c.Stats.SumReadLatencyMC++
		c.onReadComplete(1)
		return true
	}
	r.remapped = c.applyRemap(&r.coord)
	c.enqueue(r)
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
	coord := c.mapper.Decode(lineAddr)
	if c.writeQueued(lineAddr, coord) {
		return true // coalesce repeated writebacks of one line
	}
	r := c.newRequest()
	r.lineAddr, r.coord, r.enqueued, r.write = lineAddr, coord, c.now, true
	r.remapped = c.applyRemap(&r.coord)
	c.enqueue(r)
	c.tel.writeDepth.Observe(int64(len(c.writeQ)))
	return true
}

// writeQueued reports whether the write queue holds lineAddr, whose
// decoded coordinates are coord. Only that bank's writes can match (row
// retirement remaps rows, never banks), so only its list is scanned.
func (c *Controller) writeQueued(lineAddr uint64, coord dram.Coord) bool {
	for _, w := range c.banks[coord.Rank][coord.Bank].queued[1] {
		if w.lineAddr == lineAddr {
			return true
		}
	}
	return false
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
// skip-ahead loop replay skipped stall cycles without stepping the
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

// addCompletion schedules an issued (or forwarded) read's completion.
func (c *Controller) addCompletion(at int64, r *request) {
	c.completions = append(c.completions, pendingCompletion{at: at, req: r})
	c.nextDone = min(c.nextDone, at)
}

// fireCompletions fires the matured completions in issue order and
// recomputes nextDone from the ones kept.
func (c *Controller) fireCompletions() {
	if c.now < c.nextDone {
		return
	}
	kept := c.completions[:0]
	next := farFuture
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
			next = min(next, p.at)
		}
	}
	c.completions = kept
	c.nextDone = next
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
			c.touch(bank)
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
// FR-FCFS walks the queue's busy banks rather than its requests, and
// only once the bounds say some bank may act; FCFS scans its in-order
// window.
func (c *Controller) schedule(queue []*request) {
	if len(queue) == 0 {
		return
	}
	if c.FCFS {
		c.scheduleWindow(queue)
		return
	}
	write := queue[0].write
	d := dir(write)
	// A queue holds one direction, so the shared data bus admits a column
	// command for every request in it or for none.
	colOK := c.colAt[d] <= c.now && c.busAdmitsColumn(write)
	if !colOK && c.actAt[d] > c.now {
		return
	}
	// Visit every busy bank: tighten the bounds that have come due, pick
	// the oldest issuable row hit (pass 1), and collect the banks pass 2
	// may act on.
	colAt, actAt := farFuture, farFuture
	var hit *request
	c.ready = c.ready[:0]
	for _, b := range c.busy[d] {
		col, act := b.col[d], b.act[d]
		if (colOK && col <= c.now) || act <= c.now {
			col, act = c.bankBounds(b, d)
			b.col[d], b.act[d] = col, act
		}
		colAt, actAt = min(colAt, col), min(actAt, act)
		if !(colOK && col <= c.now) && act > c.now {
			continue
		}
		if len(c.vrrQ) > 0 && c.hasPendingVRR(b.rank, b.idx) {
			continue // the bank yields to its pending victim-row refresh
		}
		if act <= c.now {
			c.ready = append(c.ready, readyBank{bank: b})
			continue
		}
		for _, r := range b.queued[d] {
			if r.coord.Row == b.openRow {
				if hit == nil || r.seq < hit.seq {
					hit = r
				}
				break
			}
		}
	}
	c.colAt[d], c.actAt[d] = colAt, actAt
	if hit != nil {
		c.issueHit(queue, slices.Index(queue, hit))
		return
	}
	c.progressReady(d)
}

// readyBank is a pass-2 candidate bank and the position of its next
// request to try.
type readyBank struct {
	bank *bankState
	next int
}

// progressReady is pass 2 over the candidate banks: it tries their
// requests in queue age order, merging the banks' lists by arrival
// stamp. An open candidate has no queued hits, so its oldest request
// precharges it; a closed candidate's requests ask the ActGates in turn
// until one activates. The attempts, denials included, are exactly those
// of an age-order walk of the whole queue: every request of another bank
// would have been passed over without touching any state.
func (c *Controller) progressReady(d int) {
	for len(c.ready) > 0 {
		k := 0
		for j := 1; j < len(c.ready); j++ {
			if c.ready[j].bank.queued[d][c.ready[j].next].seq < c.ready[k].bank.queued[d][c.ready[k].next].seq {
				k = j
			}
		}
		rb := &c.ready[k]
		b := rb.bank
		r := b.queued[d][rb.next]
		if b.openRow != -1 {
			c.precharge(b)
			return
		}
		if c.allowAct(b.rank, b.idx, r.coord.Row) {
			c.activate(r, b, &c.ranks[b.rank])
			return
		}
		if rb.next++; rb.next == len(b.queued[d]) {
			c.ready[k] = c.ready[len(c.ready)-1]
			c.ready = c.ready[:len(c.ready)-1]
		}
	}
}

// scheduleWindow is FCFS: only the in-order window's requests may be
// scheduled, oldest first — a row-hit column command if one can issue,
// else an ACT or PRE.
func (c *Controller) scheduleWindow(queue []*request) {
	window := queue
	if len(window) > fcfsWindow {
		window = window[:fcfsWindow]
	}
	write := queue[0].write
	if c.busAdmitsColumn(write) {
		for i, r := range window {
			bank := r.bank
			if bank.openRow != r.coord.Row || c.now < bank.columnReadyAt(write) {
				continue
			}
			if len(c.vrrQ) > 0 && c.hasPendingVRR(r.coord.Rank, r.coord.Bank) {
				continue // the bank yields to its pending victim-row refresh
			}
			c.issueHit(queue, i)
			return
		}
	}
	for _, r := range window {
		bank := r.bank
		if len(c.vrrQ) > 0 && c.hasPendingVRR(r.coord.Rank, r.coord.Bank) {
			continue
		}
		if bank.openRow == -1 {
			rank := &c.ranks[r.coord.Rank]
			if c.canActivate(bank, rank) && c.allowAct(r.coord.Rank, r.coord.Bank, r.coord.Row) {
				c.activate(r, bank, rank)
				return
			}
			continue
		}
		if bank.openRow != r.coord.Row && c.now >= bank.preReadyAt && !hitsDeferPrecharge(window, bank) {
			c.precharge(bank)
			return
		}
	}
}

// issueHit issues the column command of queue[i], a row hit, and
// removes it from the queue.
func (c *Controller) issueHit(queue []*request, i int) {
	r := queue[i]
	c.issueColumn(r, r.bank)
	c.removeFromQueue(queue, i)
	// A request that needed its own ACT is a row miss; one that found
	// the row open is a hit.
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
}

// precharge closes a bank's wrong open row.
func (c *Controller) precharge(bank *bankState) {
	bank.closeRow()
	bank.actReadyAt = maxI64(bank.actReadyAt, c.now+int64(c.tm.TRP))
	c.touch(bank)
}

// hitsDeferPrecharge reports whether queued row hits keep bank's open
// row open against a same-queue request for another row. Only the
// active queue counts: deferring a precharge to hits in the idle queue
// could stall the active direction indefinitely. FR-FCFS counts hits
// anywhere in the queue (bankBounds: a bank with queuedHits never
// precharges). FCFS counts only its in-order window, which this scans:
// a hit beyond the window cannot issue before the window drains, so
// deferring to it would block the window until a refresh or VRR closed
// the row.
func hitsDeferPrecharge(window []*request, bank *bankState) bool {
	for _, w := range window {
		if w.bank == bank && w.coord.Row == bank.openRow {
			return true
		}
	}
	return false
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
	c.touch(bank)
	c.dispatch(CmdACT, r.coord.Rank, r.coord.Bank, r.coord.Row)
}

// columnReadyAt is the first cycle the bank accepts a column command in
// the given direction.
func (b *bankState) columnReadyAt(write bool) int64 {
	if write {
		return b.wrReadyAt
	}
	return b.rdReadyAt
}

// columnLatency is the command-to-data delay of a column command: tCWL
// for a write, tCL for a read.
func (c *Controller) columnLatency(write bool) int64 {
	if write {
		return int64(c.tm.TCWL)
	}
	return int64(c.tm.TCL)
}

// busAdmitsColumn reports whether a column command issued this cycle
// would find the shared data bus free when its data starts.
func (c *Controller) busAdmitsColumn(write bool) bool {
	return c.now+c.columnLatency(write) >= c.busNeed(write)
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
	c.addCompletion(done, r)
	c.dispatch(CmdRD, r.coord.Rank, r.coord.Bank, r.coord.Row)
}

// removeFromQueue deletes entry i of the queue the request came from;
// reads only ever live in readQ and writes in writeQ, so the request's kind
// selects the slice (queue aliases one of them).
func (c *Controller) removeFromQueue(queue []*request, i int) {
	c.unlink(queue[i])
	c.touch(queue[i].bank)
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
