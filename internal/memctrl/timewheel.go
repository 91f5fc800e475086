// The controller's time wheel: the next-event view that lets the event
// engine jump over provably idle stretches instead of ticking through
// them. NextEventAt returns a conservative lower bound on the first MC
// cycle at which Tick could do anything observable — fire a completion,
// start a refresh, progress a VRR, or issue (or be denied) a command —
// and AdvanceTo moves the clock across a span that NextEventAt proved
// empty.
//
// Conservatism is the only correctness requirement: NextEventAt may
// return a cycle earlier than the first real event (the caller just
// ticks through a few no-op cycles), but never later. Candidate times
// that depend on gate decisions count as events even when the gate
// would deny — a denial mutates gate state (lastDenied, throttle
// counters, telemetry), so the engine must land on that cycle and let
// Tick take the denial exactly as the cycle engine would.
package memctrl

// farFuture is the "no event" sentinel; far enough that adding timing
// parameters cannot overflow.
const farFuture = int64(1) << 62

// NextEventAt returns the earliest MC cycle at which the next Tick can
// have an observable effect. Every cycle strictly before it is a
// guaranteed no-op tick. With any Ticker plugin attached, every cycle
// is an event by definition. The result is always > Now(): when
// something is schedulable right now the next Tick is the event.
func (c *Controller) NextEventAt() int64 {
	if len(c.tickers) > 0 {
		return c.now + 1
	}
	next := farFuture
	for _, p := range c.completions {
		if p.at < next {
			next = p.at
		}
	}
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
// closed bank, or precharge of a wrong-row bank.
func (c *Controller) queueEventAt(queue []*request, next int64) int64 {
	limit := len(queue)
	if c.FCFS && limit > fcfsWindow {
		limit = fcfsWindow
	}
	for _, r := range queue[:limit] {
		bank := &c.banks[r.coord.Rank][r.coord.Bank]
		if len(c.vrrQ) > 0 && c.hasPendingVRR(r.coord.Rank, r.coord.Bank) {
			// The bank yields to its pending VRR; the VRR's own progress
			// time is already a candidate.
			continue
		}
		var t int64
		switch {
		case bank.openRow == r.coord.Row:
			if r.write {
				t = maxI64(bank.wrReadyAt, c.busNeed(true)-int64(c.tm.TCWL))
			} else {
				t = maxI64(bank.rdReadyAt, c.busNeed(false)-int64(c.tm.TCL))
			}
		case bank.openRow == -1:
			t = c.activateReadyAt(bank, &c.ranks[r.coord.Rank])
		default:
			// Wrong row open: precharge at preReadyAt unless same-queue
			// row hits keep the row open — then this request only moves
			// after those hits drain, and their issues are events.
			if bank.queuedHits[dir(r.write)] > 0 {
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
// be. The caller must keep target < NextEventAt(); with a Ticker
// attached NextEventAt pins the wheel to Now()+1, so ticker plugins
// never miss a tick.
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
	from := c.now
	steps := target - c.now
	c.now = target
	c.updateDrainMode()
	if steps > 1 && (steps-1)&1 == 1 && c.drainToggles() {
		c.draining = !c.draining
	}
	for _, so := range c.spanObs {
		so.OnSpan(from, target)
	}
}
