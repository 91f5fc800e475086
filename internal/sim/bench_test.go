package sim

import (
	"testing"

	"safeguard/internal/workload"
)

// BenchmarkEngineIdleHeavy times the skip-ahead loop ("event") against
// the per-cycle reference loop ("cycle") at the idle-heavy extreme: a
// single core running a pure pointer chase (every load depends on the
// previous one and misses to DRAM — the lat_mem_rd pattern). One request
// is in flight at a time, so the core sits ROB-full and the controller
// sits between events for ~98% of cycles, in ~50-cycle spans — exactly
// what the controller's time wheel skips. The two loops produce
// bit-identical results (engine_ab_test.go); this benchmark measures the
// wall-clock win, surfaced by bench2json as the cycle/event ns/op ratio.
//
//	go test -run '^$' -bench EngineIdleHeavy ./internal/sim
func BenchmarkEngineIdleHeavy(b *testing.B) {
	p := workload.Params{Name: "pchase", LoadFrac: 0.30, StoreFrac: 0.02,
		ChaseFrac: 1.0, ColdWS: 1 << 21, HotWS: 1 << 9, StreamWS: 1 << 10, StoreWS: 1 << 10}
	ipc := map[string]float64{}
	for _, engine := range engineNames {
		engine := engine
		b.Run(engine, func(b *testing.B) {
			var simulated int64
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.Cores = 1
				cfg.PrefetchDegree = 0
				cfg.Workload = p
				cfg.WarmupInstr = 10_000
				cfg.InstrPerCore = 40_000
				cfg = withEngine(b, cfg, engine)
				res, err := NewSystem(cfg).Run()
				if err != nil {
					b.Fatal(err)
				}
				ipc[engine] = res.HarmonicMeanIPC()
				simulated = 0
				for _, c := range res.CoreCycles {
					simulated += c
				}
			}
			b.ReportMetric(ipc[engine], "ipc")
			b.ReportMetric(float64(simulated)/float64(b.Elapsed().Nanoseconds()/int64(b.N)),
				"simcycles_per_ns")
		})
	}
	b.Logf("pchase harmonic-mean IPC — cycle %.4f, event %.4f (must match)", ipc["cycle"], ipc["event"])
	if ipc["cycle"] != ipc["event"] {
		b.Fatalf("engines disagree on IPC: cycle %v event %v", ipc["cycle"], ipc["event"])
	}
}

// BenchmarkSystemMemBound times the production loop on the memory-bound
// extreme of the performance figures: four mcf copies at reduced
// budgets. It reports host nanoseconds per simulated instruction and the
// fraction of core-cycles the loop charged without calling Core.Cycle
// (per-core sleep plus skipped spans).
//
//	go test -run '^$' -bench SystemMemBound ./internal/sim
func BenchmarkSystemMemBound(b *testing.B) {
	p, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	var instr, coreCycles, slept int64
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Workload = p
		cfg.WarmupInstr = 50_000
		cfg.InstrPerCore = 100_000
		sys := NewSystem(cfg)
		if _, err := sys.Run(); err != nil {
			b.Fatal(err)
		}
		for k, c := range sys.cores {
			instr += c.Retired
			// Core k cycles from its staggered start (cycle 1 at the
			// earliest) through the last cycle, sys.now-1.
			coreCycles += sys.now - max(int64(k)*997, 1)
		}
		slept += sys.slept
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instr), "ns/instr")
	b.ReportMetric(float64(slept)/float64(coreCycles), "slept_frac")
}
