package cpu

import "testing"

// BenchmarkCoreCycle times one Cycle of a Table II core fed a fixed
// synthetic mix (chaseSource: 3 loads in 7 instructions, one of them a
// pointer chase, and 1 store) over a port that completes every load a
// fixed 40 cycles after it issues. ns/instr is host time per retired
// instruction and IPC the simulated rate; a warm core allocates nothing
// per cycle.
//
//	go test -run '^$' -bench CoreCycle -benchmem ./internal/cpu
func BenchmarkCoreCycle(b *testing.B) {
	c := newFixed(&chaseSource{}, &fixedMem{latency: 40})
	now := int64(1)
	for ; now <= 10000; now++ { // fill the ROB and reach steady state
		c.Cycle(now)
	}
	start := c.Retired
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Cycle(now)
		now++
	}
	retired := float64(c.Retired - start)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/retired, "ns/instr")
	b.ReportMetric(retired/float64(b.N), "IPC")
}
