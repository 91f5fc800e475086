package memctrl

import (
	"fmt"
	"slices"
	"testing"

	"safeguard/internal/dram"
)

// loggingGate denies activations by a fixed rule of the coordinates and
// the cycle, and logs every AllowAct call: the order of gate calls,
// denials included, is part of what the scheduler must reproduce.
type loggingGate struct {
	mod int
	log *[]string
}

func (g loggingGate) Name() string                            { return "logging-gate" }
func (g loggingGate) OnCommand(Command, int, int, int, int64) {}
func (g loggingGate) DrainStats() PluginStats                 { return nil }
func (g loggingGate) AllowAct(rank, bank, row int, cycle int64) bool {
	*g.log = append(*g.log, fmt.Sprintf("%d ask %d/%d/%d", cycle, rank, bank, row))
	return (rank*7+bank*3+row+int(cycle>>4))%g.mod != 0
}

// FuzzScheduleMatchesScanReference decodes a byte stream into reads,
// writes and victim-row refreshes on a small geometry (two ranks of four
// banks, so requests collide on banks and rows), each followed by a
// fuzzer-chosen number of ticks, under FCFS or FR-FCFS and an optional
// ACT-denying gate. One controller ticks the production scheduler, its
// twin the scan-based reference. Every tick they must dispatch the same
// commands, ask the gate the same questions, and agree on Stats and
// NextEventAt; queueEventAt must equal its reference on both queues.
func FuzzScheduleMatchesScanReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 1, 0, 9, 1, 0, 1, 40, 2, 2, 0, 0, 4}, false, uint8(0))
	f.Add([]byte{0, 3, 2, 0, 0, 3, 2, 0, 0, 1, 2, 1, 1, 17, 2, 9, 2, 5, 5, 0}, true, uint8(0))
	f.Add([]byte{0, 8, 1, 1, 0, 9, 1, 1, 1, 10, 1, 1, 0, 40, 0, 30, 2, 8, 3, 2}, false, uint8(3))
	f.Add([]byte{1, 255, 255, 7, 0, 128, 3, 0, 2, 64, 1, 3, 0, 5, 5, 5}, true, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, fcfs bool, gate uint8) {
		g := dram.Geometry{Ranks: 2, Banks: 4, RowsPerBank: 64, RowBytes: 1024, LineBytes: 64}
		var cmdA, cmdB, askA, askB []string
		build := func(cmds, asks *[]string) *Controller {
			c := New(g, dram.DDR4_3200())
			c.FCFS = fcfs
			c.SetCompletionSink(&countingSink{})
			c.AttachPlugin(cmdRecorder{log: cmds})
			if gate > 0 {
				c.AttachPlugin(loggingGate{mod: int(gate%5) + 2, log: asks})
			}
			return c
		}
		a, b := build(&cmdA, &askA), build(&cmdB, &askB)
		lines := g.TotalBytes() / uint64(g.LineBytes)
		check := func(step int) {
			t.Helper()
			for _, q := range [2][]*request{a.readQ, a.writeQ} {
				if got, want := a.queueEventAt(q, farFuture), a.queueEventAtRef(q, farFuture); got != want {
					t.Fatalf("step %d: queueEventAt %d, reference %d", step, got, want)
				}
			}
			if na, nb := a.NextEventAt(), b.NextEventAt(); na != nb {
				t.Fatalf("step %d: NextEventAt %d, reference controller %d", step, na, nb)
			}
			a.Tick()
			b.tickRef()
			if !slices.Equal(cmdA, cmdB) {
				t.Fatalf("step %d: command streams diverge:\nschedule  %v\nreference %v", step, cmdA, cmdB)
			}
			if !slices.Equal(askA, askB) {
				t.Fatalf("step %d: gate calls diverge:\nschedule  %v\nreference %v", step, askA, askB)
			}
			if a.Stats != b.Stats {
				t.Fatalf("step %d: stats diverge:\nschedule  %+v\nreference %+v", step, a.Stats, b.Stats)
			}
		}
		step := 0
		for i := 0; i+4 <= len(data) && i < 4*256; i += 4 {
			line := (uint64(data[i+1])<<8 | uint64(data[i+2])) % lines
			for _, c := range []*Controller{a, b} {
				switch data[i] % 4 {
				case 0:
					c.EnqueueReadToken(line, uint64(i))
				case 1:
					c.EnqueueWrite(line)
				case 2:
					k := c.mapper.Decode(line)
					c.EnqueueVRR(k.Rank, k.Bank, k.Row)
				}
			}
			for n := int(data[i+3]%16) + 1; n > 0; n-- {
				check(step)
				step++
			}
		}
		// Drain to idle, within a fixed horizon: a denying gate can hold
		// a request back for a long while.
		for n := 0; n < 3000 && !(a.Idle() && b.Idle()); n++ {
			check(step)
			step++
		}
	})
}
