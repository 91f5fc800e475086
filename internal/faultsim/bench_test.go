package faultsim

import (
	"testing"

	fm "safeguard/internal/faultmodel"
)

// BenchmarkRunBlock times one 4096-module Monte-Carlo block — the unit a
// worker pulls — with telemetry off, and reports ns/module. The block
// index advances each iteration, so every block draws fresh histories.
//
//	go test -run '^$' -bench RunBlock -benchmem ./internal/faultsim
func BenchmarkRunBlock(b *testing.B) {
	for _, c := range []struct {
		name     string
		eval     Evaluator
		fitScale float64
	}{
		{"secded/fit1", SECDEDEval{}, 1},
		{"secded/fit10", SECDEDEval{}, 10},
		{"chipkill/fit1", ChipkillEval{}, 1},
		{"chipkill/fit10", ChipkillEval{}, 10},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := Config{Modules: 1 << 30, Years: 7, FITScale: c.fitScale, Seed: 1}
			years := int(cfg.Years + 0.5)
			sampler := fm.NewSampler(c.eval.Geometry(), fm.SridharanFITRates, cfg.FITScale, cfg.Years*fm.HoursPerYear)
			modules := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t, err := runBlock(c.eval, sampler, cfg, i, years)
				if err != nil {
					b.Fatal(err)
				}
				modules += t.modules
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(modules), "ns/module")
		})
	}
}
