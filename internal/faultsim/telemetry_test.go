package faultsim

import (
	"bytes"
	"reflect"
	"testing"

	"safeguard/internal/telemetry"
)

// The Monte-Carlo telemetry must be as worker-independent as the results:
// the study publishes its summed block tallies once, so the final
// snapshot — rendered to JSON — is byte-for-byte identical at any
// parallelism.
func TestTelemetrySnapshotBitIdenticalAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	base := Config{Modules: 30_000, Years: 7, Seed: 13, FITScale: 10}
	render := func(workers int) []byte {
		cfg := base
		cfg.Workers = workers
		cfg.Telemetry = telemetry.NewRegistry()
		mustRun(t, SECDEDEval{}, cfg)
		var buf bytes.Buffer
		if err := cfg.Telemetry.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := render(1)
	if !bytes.Contains(ref, []byte("faultsim.faulty_modules")) {
		t.Fatalf("snapshot missing faultsim counters:\n%s", ref)
	}
	for _, workers := range []int{4, 8} {
		got := render(workers)
		if !bytes.Equal(got, ref) {
			t.Errorf("workers=%d snapshot differs from workers=1:\n%s\nvs\n%s", workers, got, ref)
		}
	}
}

// A run with no registry attached publishes nothing and returns the same
// result as one with a registry.
func TestTelemetryNilRegistryIsNoop(t *testing.T) {
	t.Parallel()
	cfg := Config{Modules: 5_000, Years: 7, Seed: 3, Workers: 2, FITScale: 10}
	a := mustRun(t, SECDEDEval{}, cfg)
	cfg.Telemetry = telemetry.NewRegistry()
	b := mustRun(t, SECDEDEval{}, cfg)
	a.Config, b.Config = Config{}, Config{}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("telemetry attachment changed the measured result:\n%+v\nvs\n%+v", a, b)
	}
}
