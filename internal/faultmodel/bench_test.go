package faultmodel

import (
	"testing"
)

// benchSamplers are the two module geometries at the paper's 1x FIT and
// Figure 10's 10x.
var benchSamplers = []struct {
	name     string
	geom     ModuleGeometry
	fitScale float64
}{
	{"x8/fit1", X8SECDED16GB, 1},
	{"x8/fit10", X8SECDED16GB, 10},
	{"x4/fit1", X4Chipkill16GB, 1},
	{"x4/fit10", X4Chipkill16GB, 10},
}

// BenchmarkSampleLifetime times one module's 7-year fault draw into a
// reused buffer; faults/module reports the mean fault count drawn.
//
//	go test -run '^$' -bench SampleLifetime -benchmem ./internal/faultmodel
func BenchmarkSampleLifetime(b *testing.B) {
	for _, c := range benchSamplers {
		b.Run(c.name, func(b *testing.B) {
			s := NewSampler(c.geom, SridharanFITRates, c.fitScale, 7*HoursPerYear)
			rng := NewPCG(1, 1)
			var buf []Fault
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = s.SampleLifetime(rng, buf[:0])
				total += len(buf)
			}
			b.ReportMetric(float64(total)/float64(b.N), "faults/module")
		})
	}
}

// TestSampleLifetimeAllocationFree: once the caller's buffer has room, a
// draw allocates nothing, even at a fault rate that fills it.
func TestSampleLifetimeAllocationFree(t *testing.T) {
	s := NewSampler(X4Chipkill16GB, SridharanFITRates, 50, 7*HoursPerYear)
	rng := NewPCG(1, 1)
	buf := make([]Fault, 0, 64)
	if n := testing.AllocsPerRun(1000, func() {
		buf = s.SampleLifetime(rng, buf[:0])
		if cap(buf) > 64 {
			t.Fatalf("buffer regrown to %d", cap(buf))
		}
	}); n != 0 {
		t.Fatalf("SampleLifetime allocated %.1f times per module, want 0", n)
	}
}

// TestSampleLifetimeFastPathAllocationFree: a fault-free module, which
// the jump-ahead fast path serves, allocates nothing even into a nil
// buffer.
func TestSampleLifetimeFastPathAllocationFree(t *testing.T) {
	// One deployment hour: λ is ~1e-6 per mode, so no module faults.
	s := NewSampler(X4Chipkill16GB, SridharanFITRates, 1, 1)
	rng := NewPCG(1, 1)
	if n := testing.AllocsPerRun(1000, func() {
		if faults := s.SampleLifetime(rng, nil); len(faults) != 0 {
			t.Fatalf("drew %d faults in one hour", len(faults))
		}
	}); n != 0 {
		t.Fatalf("fault-free SampleLifetime allocated %.1f times per module, want 0", n)
	}
}
