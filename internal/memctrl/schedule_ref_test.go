package memctrl

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// scheduleRef is the scan-based scheduler the controller used before
// requests carried their bank pointer and pass 1 was gated on the data
// bus: every candidate looks its bank up by coordinates, and pass 1 runs
// canIssueColumn's full test per request. schedule must dispatch exactly
// what this reference dispatches.
func (c *Controller) scheduleRef(queue []*request) {
	limit := len(queue)
	if c.FCFS && limit > fcfsWindow {
		limit = fcfsWindow
	}
	for i, r := range queue[:limit] {
		bank := &c.banks[r.coord.Rank][r.coord.Bank]
		if len(c.vrrQ) > 0 && c.hasPendingVRR(r.coord.Rank, r.coord.Bank) {
			continue
		}
		if bank.openRow == r.coord.Row && c.canIssueColumnRef(r, bank) {
			c.issueColumn(r, bank)
			c.removeFromQueue(queue, i)
			if r.actIssued {
				c.Stats.RowMisses++
				c.tel.rowMisses.Inc()
			} else {
				c.Stats.RowHits++
				c.tel.rowHits.Inc()
			}
			if r.write {
				c.release(r)
			}
			return
		}
	}
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
		if bank.openRow != r.coord.Row && c.now >= bank.preReadyAt && !c.hitsDeferPrechargeRef(queue[:limit], r, bank) {
			bank.closeRow()
			bank.actReadyAt = maxI64(bank.actReadyAt, c.now+int64(c.tm.TRP))
			return
		}
	}
}

// canIssueColumnRef is the per-request column test: bank readiness and
// the shared data bus.
func (c *Controller) canIssueColumnRef(r *request, bank *bankState) bool {
	if r.write {
		return c.now >= bank.wrReadyAt && c.now+int64(c.tm.TCWL) >= c.busNeed(true)
	}
	return c.now >= bank.rdReadyAt && c.now+int64(c.tm.TCL) >= c.busNeed(false)
}

// hitsDeferPrechargeRef is the precharge rule by coordinates: the whole
// active queue's hits under FR-FCFS, the window's hits under FCFS.
func (c *Controller) hitsDeferPrechargeRef(window []*request, r *request, bank *bankState) bool {
	if !c.FCFS {
		return bank.queuedHits[dir(r.write)] > 0
	}
	for _, w := range window {
		if w.coord.Rank == r.coord.Rank && w.coord.Bank == r.coord.Bank && w.coord.Row == bank.openRow {
			return true
		}
	}
	return false
}

// queueEventAtRef is the scan-based reference for queueEventAt.
func (c *Controller) queueEventAtRef(queue []*request, next int64) int64 {
	limit := len(queue)
	if c.FCFS && limit > fcfsWindow {
		limit = fcfsWindow
	}
	for _, r := range queue[:limit] {
		bank := &c.banks[r.coord.Rank][r.coord.Bank]
		if len(c.vrrQ) > 0 && c.hasPendingVRR(r.coord.Rank, r.coord.Bank) {
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
			if c.hitsDeferPrechargeRef(queue[:limit], r, bank) {
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

// tickRef is Tick with scheduleRef in place of schedule.
func (c *Controller) tickRef() {
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
	c.scheduleRef(queue)
}

// cmdRecorder logs every dispatched command into a log its rig owns, so
// the log outlives a checkpoint swap of the controller.
type cmdRecorder struct{ log *[]string }

func (r cmdRecorder) Name() string            { return "cmd-recorder" }
func (r cmdRecorder) DrainStats() PluginStats { return nil }
func (r cmdRecorder) SaveState() ([]byte, error) {
	return []byte("{}"), nil
}
func (r cmdRecorder) RestoreState([]byte) error { return nil }
func (r cmdRecorder) OnCommand(cmd Command, rank, bank, row int, cycle int64) {
	*r.log = append(*r.log, fmt.Sprintf("%d %s %d/%d/%d", cycle, cmd, rank, bank, row))
}

// newRecordedRig is an oracle rig (PARA issuing VRRs, spare rows) with a
// command recorder appending to log.
func newRecordedRig(t *testing.T, fcfs bool, seed uint64, log *[]string) oracleRig {
	t.Helper()
	rig := newOracleRig(t, fcfs, seed)
	rig.c.AttachPlugin(cmdRecorder{log: log})
	return rig
}

// TestScheduleMatchesScanReference twin-drives two controllers on the
// same seeded read/write traffic — hot rows, PARA victim-row refreshes,
// retirements of open rows, FCFS off and on — one ticking the production
// scheduler, the other the scan-based reference. Halfway through the
// production controller is checkpointed into a fresh one, which carries
// on. The dispatched command streams, Stats, completion counts and
// NextEventAt must agree on every cycle, and queueEventAt must equal its
// reference on both queues.
func TestScheduleMatchesScanReference(t *testing.T) {
	t.Parallel()
	for _, fcfs := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("fcfs=%v/seed=%d", fcfs, seed), func(t *testing.T) {
				t.Parallel()
				var logA, logB []string
				a := newRecordedRig(t, fcfs, seed, &logA)
				b := newRecordedRig(t, fcfs, seed, &logB)
				rng := rand.New(rand.NewPCG(seed, 7))
				const steps, cut = 30000, 15000
				lines := uint64(a.c.geom.TotalBytes() / 64)
				doneBeforeCut := 0
				retired, checked := 0, 0
				for step := 0; step < steps; step++ {
					if step == cut {
						st, err := a.c.SaveState()
						if err != nil {
							t.Fatalf("SaveState: %v", err)
						}
						doneBeforeCut = a.sink.done
						a = newRecordedRig(t, fcfs, seed, &logA)
						if err := a.c.RestoreState(st); err != nil {
							t.Fatalf("RestoreState: %v", err)
						}
					}
					line := uint64(rng.IntN(64))
					if rng.IntN(4) == 0 {
						line = rng.Uint64N(lines)
					}
					op := rng.IntN(10)
					retire := rng.IntN(3000) == 0 && retired < 8
					var rk, bk, row int
					if retire {
						rk, bk, row = rng.IntN(2), rng.IntN(4), rng.IntN(48)
						if open := b.c.banks[rk][bk].openRow; open >= 0 && open < 48 {
							row = open
						}
						retired++
					}
					for _, r := range []oracleRig{a, b} {
						switch {
						case op < 4:
							r.c.EnqueueReadToken(line, uint64(step))
						case op < 6:
							r.c.EnqueueWrite(line)
						}
						if retire {
							_, _ = r.c.RetireRow(rk, bk, row)
						}
					}
					for _, q := range [2][]*request{a.c.readQ, a.c.writeQ} {
						if got, want := a.c.queueEventAt(q, farFuture), a.c.queueEventAtRef(q, farFuture); got != want {
							t.Fatalf("step %d: queueEventAt %d, reference %d", step, got, want)
						}
					}
					if na, nb := a.c.NextEventAt(), b.c.NextEventAt(); na != nb {
						t.Fatalf("step %d: NextEventAt %d, reference controller %d", step, na, nb)
					}
					a.c.Tick()
					b.c.tickRef()
					if !slices.Equal(logA[checked:], logB[checked:]) {
						t.Fatalf("step %d: command streams diverge:\nschedule  %v\nreference %v",
							step, logA[checked:], logB[checked:])
					}
					checked = len(logA)
					if a.c.Stats != b.c.Stats {
						t.Fatalf("step %d: stats diverge:\nschedule  %+v\nreference %+v", step, a.c.Stats, b.c.Stats)
					}
				}
				if got := doneBeforeCut + a.sink.done; got != b.sink.done {
					t.Fatalf("completions: schedule %d, reference %d", got, b.sink.done)
				}
				st := b.c.Stats
				if st.Refreshes == 0 || st.VRRs == 0 || st.RowsRetired == 0 || st.RowHits == 0 || st.RowMisses == 0 || st.Writes == 0 {
					t.Fatalf("traffic missed a case: %+v", st)
				}
			})
		}
	}
}
