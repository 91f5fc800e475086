package sim

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"safeguard/internal/snapshot"
	"safeguard/internal/telemetry"
	"safeguard/internal/workload"
)

// The checkpoint contract: interrupting a run at any end-of-cycle
// boundary, serializing everything to sgsnap/1 bytes, and resuming in a
// freshly built System is unobservable — the resumed run's Result, CPI
// stacks, plugin stats, and telemetry are bit-identical to the run that
// was never interrupted, for every scheme × mitigation, under either
// engine, including capturing under one engine and resuming under the
// other.

// restoreConfig is engineABConfig shrunk so the full scheme × mitigation
// × engine restore matrix stays affordable.
func restoreConfig(t *testing.T, scheme Scheme, mitigation string) Config {
	t.Helper()
	cfg := engineABConfig(t, scheme, mitigation)
	cfg.WarmupInstr = 10_000
	cfg.InstrPerCore = 10_000
	return cfg
}

// captureAt runs cfg under engine until cycle `at`, returning the sgsnap/1
// bytes captured there. The run must end in ErrStopped — the interrupted
// leg of the proof.
func captureAt(t *testing.T, cfg Config, engine string, at int64) []byte {
	t.Helper()
	cfg = withEngine(t, cfg, engine)
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.SnapshotAt = at
	cfg.SnapshotStop = true
	var data []byte
	cfg.SnapshotFn = func(b []byte) error { data = b; return nil }
	if _, err := NewSystem(cfg).Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("interrupted run under %q: got err %v, want ErrStopped", engine, err)
	}
	if data == nil {
		t.Fatalf("interrupted run under %q captured no snapshot", engine)
	}
	return data
}

// resume restores the snapshot into a fresh System and runs it to
// completion.
func resume(t *testing.T, cfg Config, engine string, data []byte) (Result, telemetry.Snapshot) {
	t.Helper()
	cfg = withEngine(t, cfg, engine)
	cfg.Telemetry = telemetry.NewRegistry()
	sys := NewSystem(cfg)
	if err := sys.RestoreSnapshot(data); err != nil {
		t.Fatalf("restore under %q: %v", engine, err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("resumed run under %q: %v", engine, err)
	}
	return res, cfg.Telemetry.Snapshot()
}

func assertRunsIdentical(t *testing.T, label string, want, got Result, wantSnap, gotSnap telemetry.Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(want.CoreCycles, got.CoreCycles) {
		t.Errorf("%s: CoreCycles diverge: want %v got %v", label, want.CoreCycles, got.CoreCycles)
	}
	if !reflect.DeepEqual(want.WarmCycles, got.WarmCycles) {
		t.Errorf("%s: WarmCycles diverge: want %v got %v", label, want.WarmCycles, got.WarmCycles)
	}
	if !reflect.DeepEqual(want.IPC, got.IPC) {
		t.Errorf("%s: IPC diverges: want %v got %v", label, want.IPC, got.IPC)
	}
	if want.MCStats != got.MCStats {
		t.Errorf("%s: MCStats diverge:\nwant %+v\ngot  %+v", label, want.MCStats, got.MCStats)
	}
	if want.LLCHits != got.LLCHits || want.LLCMisses != got.LLCMisses || want.Prefetches != got.Prefetches {
		t.Errorf("%s: LLC stats diverge: want (%d,%d,%d) got (%d,%d,%d)", label,
			want.LLCHits, want.LLCMisses, want.Prefetches, got.LLCHits, got.LLCMisses, got.Prefetches)
	}
	if !reflect.DeepEqual(want.PluginStats, got.PluginStats) {
		t.Errorf("%s: PluginStats diverge:\nwant %v\ngot  %v", label, want.PluginStats, got.PluginStats)
	}
	if (want.CPI == nil) != (got.CPI == nil) || (want.CPI != nil && *want.CPI != *got.CPI) {
		t.Errorf("%s: CPI stacks diverge:\nwant %v\ngot  %v", label, want.CPI, got.CPI)
	}
	if !reflect.DeepEqual(wantSnap, gotSnap) {
		t.Errorf("%s: telemetry snapshots diverge:\nwant %+v\ngot  %+v", label, wantSnap, gotSnap)
	}
}

// restoreProof runs the full A/B: an uninterrupted reference, then for
// each engine a capture-at-N/resume pair that must reproduce it exactly.
func restoreProof(t *testing.T, cfg Config, at int64) {
	t.Helper()
	ref, refSnap := runEngine(t, cfg, "event")
	for _, engine := range engineNames {
		data := captureAt(t, cfg, engine, at)
		res, snap := resume(t, cfg, engine, data)
		assertRunsIdentical(t, engine, ref, res, refSnap, snap)
	}
}

// TestRestoreEqualsUninterruptedAllSchemes proves the contract for every
// protection scheme, capture point mid-warm-up (the memory system is at
// full boil: in-flight MSHRs, merged MAC fetches, queued writebacks).
func TestRestoreEqualsUninterruptedAllSchemes(t *testing.T) {
	t.Parallel()
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			restoreProof(t, restoreConfig(t, scheme, "none"), 12_000)
		})
	}
}

// TestRestoreEqualsUninterruptedAllMitigations proves it with every
// mitigation plugin attached (sized so the plugins actually act, and
// their PCG streams, CAM/bloom contents, and gate state all cross the
// snapshot).
func TestRestoreEqualsUninterruptedAllMitigations(t *testing.T) {
	t.Parallel()
	for _, mit := range []string{"para", "trr", "graphene", "blockhammer"} {
		mit := mit
		t.Run(mit, func(t *testing.T) {
			t.Parallel()
			restoreProof(t, restoreConfig(t, SafeGuard, mit), 12_000)
		})
	}
}

// TestRestoreCrossEngine captures under one engine and resumes under the
// other: the snapshot point is an end-of-cycle boundary both engines reach
// with identical state, so the handoff must be invisible in either
// direction.
func TestRestoreCrossEngine(t *testing.T) {
	t.Parallel()
	cfg := restoreConfig(t, SGXFullStyle, "none")
	ref, refSnap := runEngine(t, cfg, "event")
	for _, pair := range [][2]string{{"event", "cycle"}, {"cycle", "event"}} {
		data := captureAt(t, cfg, pair[0], 12_000)
		res, snap := resume(t, cfg, pair[1], data)
		assertRunsIdentical(t, pair[0]+"->"+pair[1], ref, res, refSnap, snap)
	}
}

// TestRestoreLateCapture moves the capture point into the measured window
// (after every core's warm-up crossing): frozen warm CPI snapshots,
// partially-measured stacks, and done crossings must all survive.
func TestRestoreLateCapture(t *testing.T) {
	t.Parallel()
	cfg := restoreConfig(t, SafeGuard, "para")
	ref, refSnap := runEngine(t, cfg, "event")
	data := captureAt(t, cfg, "event", 40_000)
	res, snap := resume(t, cfg, "event", data)
	assertRunsIdentical(t, "late", ref, res, refSnap, snap)
}

// TestSnapshotWarmCapture: the warm-start pool's capture point fires at
// the end of the first cycle where every core has crossed warm-up, and
// resuming from it reproduces the uninterrupted run.
func TestSnapshotWarmCapture(t *testing.T) {
	t.Parallel()
	cfg := restoreConfig(t, SafeGuard, "none")
	ref, refSnap := runEngine(t, cfg, "event")

	run := withEngine(t, cfg, "event")
	run.Telemetry = telemetry.NewRegistry()
	run.SnapshotWarm = true
	var warm []byte
	run.SnapshotFn = func(b []byte) error {
		if warm != nil {
			t.Error("warm capture fired twice")
		}
		warm = append([]byte(nil), b...)
		return nil
	}
	full, err := NewSystem(run).Run()
	if err != nil {
		t.Fatal(err)
	}
	if warm == nil {
		t.Fatal("warm capture never fired")
	}
	assertRunsIdentical(t, "warm-capture-run", ref, full, refSnap, run.Telemetry.Snapshot())

	// The capture cycle is the max warm crossing: the end of the first
	// cycle at which all cores are warm.
	var maxWarm int64
	for _, w := range full.WarmCycles {
		if w > maxWarm {
			maxWarm = w
		}
	}
	h, err := snapshot.Peek(warm)
	if err != nil {
		t.Fatal(err)
	}
	var cyc int64
	for _, r := range h.Meta["cycle"] {
		cyc = cyc*10 + int64(r-'0')
	}
	if cyc != maxWarm {
		t.Errorf("warm capture at cycle %d, want max warm crossing %d", cyc, maxWarm)
	}

	res, snap := resume(t, cfg, "event", warm)
	assertRunsIdentical(t, "resume-from-warm", ref, res, refSnap, snap)
}

// TestRestoreRejectsMismatchedConfig: a snapshot only restores into a
// System built from the same experiment cell.
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	t.Parallel()
	cfg := restoreConfig(t, SafeGuard, "none")
	data := captureAt(t, cfg, "event", 5_000)
	bad := []func(*Config){
		func(c *Config) { c.Scheme = Baseline },
		func(c *Config) { c.Seed = 99 },
		func(c *Config) {
			p, err := workload.ByName("lbm")
			if err != nil {
				t.Fatal(err)
			}
			c.Workload = p
		},
		func(c *Config) { c.Cores = 2 },
		func(c *Config) { c.Attrib = false },
	}
	for i, mutate := range bad {
		c := cfg
		c.Telemetry = telemetry.NewRegistry()
		mutate(&c)
		if err := NewSystem(c).RestoreSnapshot(data); err == nil {
			t.Errorf("mutation %d: mismatched config restored without error", i)
		}
	}
}

// TestRestoreRejectsTampering: the strict reader refuses corrupt bytes —
// bit flips anywhere, truncation, and trailing garbage all fail before
// any state is half-loaded.
func TestRestoreRejectsTampering(t *testing.T) {
	t.Parallel()
	cfg := restoreConfig(t, SafeGuard, "none")
	data := captureAt(t, cfg, "event", 5_000)
	fresh := func() *System {
		c := cfg
		c.Telemetry = telemetry.NewRegistry()
		return NewSystem(c)
	}
	if err := fresh().RestoreSnapshot(data[:len(data)/2]); err == nil {
		t.Error("truncated snapshot restored without error")
	}
	if err := fresh().RestoreSnapshot(append(append([]byte(nil), data...), "extra\n"...)); err == nil {
		t.Error("snapshot with trailing garbage restored without error")
	}
	for _, pos := range []int{0, len(data) / 3, len(data) / 2, len(data) - 2} {
		flipped := append([]byte(nil), data...)
		flipped[pos] ^= 0x40
		if err := fresh().RestoreSnapshot(flipped); err == nil {
			t.Errorf("bit flip at %d restored without error", pos)
		}
	}
}

// TestSnapshotDeterministic: the same system state encodes to the same
// bytes, and capture is read-only — a run that snapshots mid-flight
// finishes identically to one that never did.
func TestSnapshotDeterministic(t *testing.T) {
	t.Parallel()
	cfg := restoreConfig(t, SGXStyle, "none")
	a := captureAt(t, cfg, "event", 9_000)
	b := captureAt(t, cfg, "event", 9_000)
	if !bytes.Equal(a, b) {
		t.Error("identical runs captured different snapshot bytes")
	}

	ref, refSnap := runEngine(t, cfg, "event")
	observed := withEngine(t, cfg, "event")
	observed.Telemetry = telemetry.NewRegistry()
	observed.SnapshotAt = 9_000
	observed.SnapshotFn = func([]byte) error { return nil }
	res, err := NewSystem(observed).Run()
	if err != nil {
		t.Fatal(err)
	}
	assertRunsIdentical(t, "observed", ref, res, refSnap, observed.Telemetry.Snapshot())
}

// TestSnapshotRequiresSink: snapshot knobs without a SnapshotFn are a
// construction error surfaced by Run.
func TestSnapshotRequiresSink(t *testing.T) {
	t.Parallel()
	cfg := restoreConfig(t, Baseline, "none")
	cfg.SnapshotAt = 100
	if _, err := NewSystem(cfg).Run(); err == nil {
		t.Fatal("SnapshotAt without SnapshotFn must error")
	}
}
