package memctrl

import (
	"math/rand/v2"
	"testing"

	"safeguard/internal/dram"
)

// cmdCounter counts dispatched commands.
type cmdCounter struct{ n int }

func (p *cmdCounter) Name() string                            { return "cmd-counter" }
func (p *cmdCounter) OnCommand(Command, int, int, int, int64) { p.n++ }
func (p *cmdCounter) DrainStats() PluginStats                 { return nil }

// BenchmarkControllerTick times one Tick of the Table II controller with
// its 64-entry read queue kept full and a writeback stream that trips
// the write-drain watermark. Reads mix a few hot rows (row hits) with
// uniform lines (conflicts across all banks); cmds_per_tick reports the
// dispatched command rate.
//
//	go test -run '^$' -bench ControllerTick ./internal/memctrl
func BenchmarkControllerTick(b *testing.B) {
	c := New(dram.Table2Geometry, dram.DDR4_3200())
	c.SetCompletionSink(&countingSink{})
	cmds := &cmdCounter{}
	c.AttachPlugin(cmds)
	rng := rand.New(rand.NewPCG(1, 1))
	lines := dram.Table2Geometry.TotalBytes() / uint64(dram.Table2Geometry.LineBytes)
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = rng.Uint64N(lines)
		if rng.IntN(2) == 0 {
			addrs[i] = rng.Uint64N(1 << 9) // 4 hot rows' worth of lines
		}
	}
	next := 0
	step := func() {
		for c.CanAcceptRead() {
			c.EnqueueReadToken(addrs[next&(len(addrs)-1)], uint64(next))
			next++
		}
		if next&1 == 0 && c.CanAcceptWrite() {
			c.EnqueueWrite(addrs[(next*7)&(len(addrs)-1)] ^ 1<<20)
		}
		c.Tick()
	}
	for range 20000 {
		step()
	}
	cmds.n = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(cmds.n)/float64(b.N), "cmds_per_tick")
}
