// The controller's time wheel: the next-event view that lets its drivers
// (sim's skip-ahead loop and payload.Run) jump over provably idle
// stretches instead of ticking through them. NextEventAt returns a
// conservative lower bound on the first MC cycle at which Tick could do
// anything observable — fire a completion, start a refresh, progress a
// VRR, or issue (or be denied) a command — and AdvanceTo moves the clock
// across a span that NextEventAt proved empty.
//
// Conservatism is the only correctness requirement: NextEventAt may
// return a cycle earlier than the first real event (the caller just
// ticks through a few no-op cycles), but never later. Candidate times
// that depend on gate decisions count as events even when the gate
// would deny — a denial mutates gate state (lastDenied, throttle
// counters, telemetry), so the driver must land on that cycle and let
// Tick take the denial exactly as per-cycle ticking would. The
// twin-drive tests and FuzzEngineEquivalence hold Tick-every-cycle and
// NextEventAt/AdvanceTo driving to identical state.
package memctrl

// farFuture is the "no event" sentinel; far enough that adding timing
// parameters cannot overflow.
const farFuture = int64(1) << 62

// NextEventAt returns the earliest MC cycle at which the next Tick can
// have an observable effect. Every cycle strictly before it is a
// guaranteed no-op tick. The result is always > Now(): when something
// is schedulable right now the next Tick is the event.
func (c *Controller) NextEventAt() int64 {
	next := c.nextDone
	for r := range c.ranks {
		if t := c.ranks[r].nextRefreshAt; t < next {
			next = t
		}
	}
	// VRR progress: an open bank precharges at preReadyAt, a closed bank
	// activates once the bank and rank ACT constraints clear.
	for _, v := range c.vrrQ {
		bank := &c.banks[v.rank][v.bank]
		var t int64
		if bank.openRow != -1 {
			t = bank.preReadyAt
		} else {
			t = c.activateReadyAt(bank, &c.ranks[v.rank])
		}
		if t < next {
			next = t
		}
	}
	// Both queues are scanned regardless of the current drain mode: the
	// drain flag can oscillate across an idle span (see AdvanceTo), and
	// covering both directions is conservative either way.
	next = c.queueEventAt(c.readQ, next)
	next = c.queueEventAt(c.writeQ, next)
	if next <= c.now {
		return c.now + 1
	}
	return next
}

// queueEventAt folds one queue's earliest command-candidate time into
// next. Mirrors schedule(): row-hit column issue, activation of a
// closed bank, or precharge of a wrong-row bank. FR-FCFS folds its busy
// banks' bounds; FCFS scans its in-order window.
func (c *Controller) queueEventAt(queue []*request, next int64) int64 {
	if len(queue) == 0 {
		return next
	}
	// The queue's one direction fixes the bus's earliest column issue.
	write := queue[0].write
	busAt := c.busNeed(write) - c.columnLatency(write)
	if !c.FCFS {
		d := dir(write)
		for _, b := range c.busy[d] {
			if min(b.act[d], maxI64(b.col[d], busAt)) >= next {
				continue // the cached lower bounds cannot lower next
			}
			if len(c.vrrQ) > 0 && c.hasPendingVRR(b.rank, b.idx) {
				// The bank yields to its pending VRR; the VRR's own
				// progress time is already a candidate.
				continue
			}
			col, act := c.bankBounds(b, d)
			b.col[d], b.act[d] = col, act
			next = min(next, act, maxI64(col, busAt))
		}
		return next
	}
	window := queue
	if len(window) > fcfsWindow {
		window = window[:fcfsWindow]
	}
	for _, r := range window {
		bank := r.bank
		if len(c.vrrQ) > 0 && c.hasPendingVRR(r.coord.Rank, r.coord.Bank) {
			// The bank yields to its pending VRR; the VRR's own progress
			// time is already a candidate.
			continue
		}
		var t int64
		switch {
		case bank.openRow == r.coord.Row:
			t = maxI64(bank.columnReadyAt(write), busAt)
		case bank.openRow == -1:
			t = c.activateReadyAt(bank, &c.ranks[r.coord.Rank])
		default:
			// Wrong row open: precharge at preReadyAt unless same-queue
			// row hits keep the row open — then this request only moves
			// after those hits drain, and their issues are events.
			if hitsDeferPrecharge(window, bank) {
				continue
			}
			t = bank.preReadyAt
		}
		if t < next {
			next = t
		}
	}
	return next
}

// activateReadyAt is the first cycle canActivate can pass for the bank:
// bank tRP/tRFC recovery plus the rank's tRRD and tFAW windows.
func (c *Controller) activateReadyAt(bank *bankState, rank *rankState) int64 {
	t := maxI64(bank.actReadyAt, rank.lastActAt+int64(c.tm.TRRD))
	return maxI64(t, rank.actWindow[rank.actWindowPos]+int64(c.tm.TFAW))
}

// drainToggles reports whether updateDrainMode flips the drain flag on
// every call at the current queue depths. Exactly two regimes toggle:
// an empty read queue with a below-watermark write backlog (enter-drain
// and exit-drain conditions both hold), and a nearly full read queue
// with an above-watermark write queue.
func (c *Controller) drainToggles() bool {
	rq, wq := len(c.readQ), len(c.writeQ)
	return (rq == 0 && wq > 0 && wq <= drainLow) ||
		(rq >= ReadQueueSize-4 && wq >= drainHigh)
}

// AdvanceTo jumps the controller clock to `target`, treating every
// cycle in (Now(), target] as the no-op tick NextEventAt proved it to
// be. The caller must keep target < NextEventAt(). Plugins see nothing
// of the jump: with no command issued in the span there is nothing to
// dispatch.
//
// The one piece of per-tick state that changes even across a no-op span
// is the drain flag: updateDrainMode is not idempotent in the two
// toggle regimes (see drainToggles), so the flag's final value depends
// on the span's parity. AdvanceTo replays the first emulated tick's
// decision, then applies the remaining flips in O(1).
func (c *Controller) AdvanceTo(target int64) {
	if target <= c.now {
		return
	}
	steps := target - c.now
	c.now = target
	c.updateDrainMode()
	if steps > 1 && (steps-1)&1 == 1 && c.drainToggles() {
		c.draining = !c.draining
	}
}
