// Makefile contract tests: the recipes other tooling scripts against —
// bench artifact keying, the lint skip path, the CI gate's composition —
// are exercised with GO=echo so no recipe actually compiles anything.
// Skipped where `make` is unavailable.
package safeguard_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMake invokes make in the repo root with the given args and returns
// combined output plus the exit error (nil on success).
func runMake(t *testing.T, args ...string) (string, error) {
	t.Helper()
	if _, err := exec.LookPath("make"); err != nil {
		t.Skip("make not installed")
	}
	cmd := exec.Command("make", args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// The bench recipe must fail loudly — not write BENCH_.json — when no PR
// key can be derived, and must honor an explicit BENCH_PR=n override.
func TestMakeBenchRefusesUnkeyedArtifact(t *testing.T) {
	t.Parallel()
	out, err := runMake(t, "bench", "BENCH_PR=", "GO=echo")
	if err == nil {
		t.Fatalf("make bench with empty BENCH_PR succeeded:\n%s", out)
	}
	if !strings.Contains(out, "refusing to write BENCH_.json") {
		t.Fatalf("missing loud failure message:\n%s", out)
	}
	if _, statErr := os.Stat("BENCH_.json"); statErr == nil {
		os.Remove("BENCH_.json")
		t.Fatal("make bench wrote the unkeyed BENCH_.json it promised to refuse")
	}
}

func TestMakeBenchHonorsOverride(t *testing.T) {
	t.Parallel()
	// GO=echo turns the pipeline into `echo test ... | echo run ...`, so
	// the recipe proves its wiring (the override lands in the artifact
	// name) without running benchmarks.
	out, err := runMake(t, "bench", "BENCH_PR=999", "GO=echo", "--just-print")
	if err != nil {
		t.Fatalf("make bench dry-run failed:\n%s", out)
	}
	if !strings.Contains(out, "BENCH_999.json") {
		t.Fatalf("BENCH_PR=999 override not reflected in recipe:\n%s", out)
	}
}

// BENCH_PR derives from the newest "- PR <n>:" line in CHANGES.md; that
// derivation must track the file (each PR appends to it).
func TestMakeBenchDerivesKeyFromChanges(t *testing.T) {
	t.Parallel()
	raw, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	var newest string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "- PR ") {
			n := strings.TrimPrefix(line, "- PR ")
			if i := strings.IndexByte(n, ':'); i > 0 {
				newest = n[:i]
			}
		}
	}
	if newest == "" {
		t.Fatal("CHANGES.md has no '- PR <n>:' entry; bench keying is broken")
	}
	out, err := runMake(t, "bench", "GO=echo", "--just-print")
	if err != nil {
		t.Fatalf("make bench dry-run failed:\n%s", out)
	}
	if !strings.Contains(out, "BENCH_"+newest+".json") {
		t.Fatalf("derived key %q not in recipe:\n%s", newest, out)
	}
}

// The fuzz budget must be overridable (the nightly workflow passes
// FUZZTIME=60s) and default to the 2s smoke.
func TestMakeFuzztimeParameterized(t *testing.T) {
	t.Parallel()
	out, err := runMake(t, "fuzz-smoke", "GO=echo", "--just-print")
	if err != nil {
		t.Fatalf("fuzz-smoke dry-run failed:\n%s", out)
	}
	if !strings.Contains(out, "-fuzztime 2s") {
		t.Fatalf("default FUZZTIME is not 2s:\n%s", out)
	}
	out, err = runMake(t, "fuzz-smoke", "FUZZTIME=60s", "GO=echo", "--just-print")
	if err != nil {
		t.Fatalf("fuzz-smoke FUZZTIME=60s dry-run failed:\n%s", out)
	}
	if !strings.Contains(out, "-fuzztime 60s") {
		t.Fatalf("FUZZTIME=60s override ignored:\n%s", out)
	}
}

// Fuzz targets are package-qualified (pkg:FuzzName): the recipe must
// split each entry and hand the right package to go test, and the list
// must keep the cross-engine equivalence target alongside the codecs.
func TestMakeFuzzTargetsPackageQualified(t *testing.T) {
	t.Parallel()
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	mf := string(raw)
	for _, want := range []string{
		"./internal/ecc:FuzzSECDEDDecode",
		"./internal/memctrl:FuzzEngineEquivalence",
		"./internal/snapshot:FuzzSnapshotRoundTrip",
		"./internal/snapshot:FuzzSnapshotReader",
		"./internal/payload:FuzzPayloadParse",
		"./internal/synth:FuzzParseMatrix",
		"./internal/telemetry:FuzzParseEvent",
		"./internal/telemetry:FuzzReadTraceFile",
		"./internal/resultcache:FuzzParseRequest",
		"./internal/resultcache:FuzzReadArtifact",
		"./internal/jobs:FuzzLoadPendingJobs",
		"./internal/fleet:FuzzDecodeComplete",
		"./internal/attrib:FuzzReadReport",
		"./cmd/sgtop:FuzzHandleSSELine",
	} {
		if !strings.Contains(mf, want) {
			t.Errorf("FUZZ_TARGETS missing %q", want)
		}
	}
	out, err := runMake(t, "fuzz-smoke", "GO=echo", "--just-print")
	if err != nil {
		t.Fatalf("fuzz-smoke dry-run failed:\n%s", out)
	}
	// The pkg:Fuzz split must happen in the recipe, not leak the raw
	// qualified token into the go test invocation.
	if !strings.Contains(out, `pkg=$`) || !strings.Contains(out, `fn=$`) {
		t.Errorf("fuzz-smoke recipe lost its pkg/fn split:\n%s", out)
	}
}

// bench-quick must run the suite once per benchmark and diff loosely
// against the committed baseline — the PR-time smoke the ci workflow
// invokes.
func TestMakeBenchQuickComposition(t *testing.T) {
	t.Parallel()
	out, err := runMake(t, "bench-quick", "GO=echo", "--just-print")
	if err != nil {
		t.Fatalf("bench-quick dry-run failed:\n%s", out)
	}
	for _, want := range []string{"-benchtime=100ms", "bench2json", "-regress 1.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("bench-quick recipe missing %q:\n%s", want, out)
		}
	}
	// The throwaway report must not be keyed like a committed artifact.
	if strings.Contains(out, "-o BENCH_") {
		t.Errorf("bench-quick writes a committed-style BENCH_ artifact:\n%s", out)
	}
}

// The CI gate must keep its legs: lint, race+shuffle tests, the coverage
// gate (including the serving packages), fuzz, examples, sgprof.
func TestMakeCIComposition(t *testing.T) {
	t.Parallel()
	out, err := runMake(t, "ci", "GO=echo", "--just-print")
	if err != nil {
		t.Fatalf("ci dry-run failed:\n%s", out)
	}
	for _, leg := range []string{"lint", "-race", "-shuffle=on", "cover", "fuzz-smoke", "examples-smoke", "sgprof-smoke", "snapshot-smoke", "figures-smoke", "obs-smoke", "synth-smoke", "perfbench-test"} {
		if !strings.Contains(out, leg) {
			t.Errorf("make ci lost its %q leg:\n%s", leg, out)
		}
	}
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range []string{"./internal/jobs", "./internal/resultcache", "./internal/fleet", "./internal/snapshot", "./internal/payload", "./internal/synth", "./internal/rowhammer", "./internal/sim", "./internal/ecc", "./internal/faultmodel", "./internal/faultsim", "./internal/pool"} {
		if !strings.Contains(string(raw), pkg) {
			t.Errorf("coverage gate dropped %s", pkg)
		}
	}
}

// perfbench-test must reach the benchmark's separate module and build it
// the way perfbench/run.py does: offline (no proxy, no checksum DB, no
// toolchain download) with every build product under .bench_build/.
func TestMakePerfbenchTestComposition(t *testing.T) {
	t.Parallel()
	out, err := runMake(t, "perfbench-test", "GO=echo", "--just-print")
	if err != nil {
		t.Fatalf("perfbench-test dry-run failed:\n%s", out)
	}
	for _, want := range []string{
		"cd perfbench", "test ./...", "GOPROXY=off", "GOSUMDB=off", "GOTOOLCHAIN=local",
		"GOFLAGS=-mod=mod", "CGO_ENABLED=0", ".bench_build/gocache", ".bench_build/gopath/pkg/mod",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("perfbench-test recipe missing %q:\n%s", want, out)
		}
	}
}

// figures-smoke must keep its four runs of the real sgperf binary — one
// and four workers, cold and resumed through a -snapshot pool — and the
// byte comparison against the one-worker run.
func TestMakeFiguresSmokeComposition(t *testing.T) {
	t.Parallel()
	out, err := runMake(t, "figures-smoke", "GO=echo", "--just-print")
	if err != nil {
		t.Fatalf("figures-smoke dry-run failed:\n%s", out)
	}
	for _, want := range []string{
		"./cmd/sgperf", "-all -workloads mcf,leela -instr 4000 -warmup 2000 -seeds 2 -attrib -stats text",
		"GOMAXPROCS=1", "GOMAXPROCS=4", "-snapshot", "-resume", "cmp",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figures-smoke recipe missing %q:\n%s", want, out)
		}
	}
}

// synth-smoke must keep the determinism proof it exists for: the same
// tiny two-mitigation sweep run twice through the real sgattack binary,
// outputs compared with cmp — plus the schema sniff that pins the JSON
// mode to the canonical synth-matrix/1 artifact.
func TestMakeSynthSmokeComposition(t *testing.T) {
	t.Parallel()
	out, err := runMake(t, "synth-smoke", "GO=echo", "--just-print")
	if err != nil {
		t.Fatalf("synth-smoke dry-run failed:\n%s", out)
	}
	for _, want := range []string{
		"./cmd/sgattack", "-synth", "-json",
		"-synth-mitigations none,para", "-synth-thresholds 300",
		"cmp", "synth-matrix/1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("synth-smoke recipe missing %q:\n%s", want, out)
		}
	}
}

// The nightly synthesis gate: synth-baseline-check must rerun the
// committed-baseline sweep, compare via -baseline against the committed
// matrix, and leave the fresh matrix in synth_matrix.json for the
// artifact upload. synth-baseline must regenerate that same committed
// file from identical knobs, or the gate compares apples to oranges.
func TestMakeSynthBaselineComposition(t *testing.T) {
	t.Parallel()
	out, err := runMake(t, "synth-baseline-check", "GO=echo", "--just-print")
	if err != nil {
		t.Fatalf("synth-baseline-check dry-run failed:\n%s", out)
	}
	for _, want := range []string{"-synth", "-baseline testdata/synth_baseline.json", "synth_matrix.json"} {
		if !strings.Contains(out, want) {
			t.Errorf("synth-baseline-check recipe missing %q:\n%s", want, out)
		}
	}
	gen, err := runMake(t, "synth-baseline", "GO=echo", "--just-print")
	if err != nil {
		t.Fatalf("synth-baseline dry-run failed:\n%s", gen)
	}
	if !strings.Contains(gen, "testdata/synth_baseline.json") {
		t.Fatalf("synth-baseline does not write the committed baseline path:\n%s", gen)
	}
	// Same knobs both sides: strip the target-specific tail and the two
	// sgattack invocations must share the flag prefix.
	flags := func(s string) string {
		for _, line := range strings.Split(s, "\n") {
			if i := strings.Index(line, "-synth -json"); i >= 0 {
				tail := line[i:]
				if j := strings.Index(tail, " >"); j >= 0 {
					tail = tail[:j]
				}
				return strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(tail), "-baseline testdata/synth_baseline.json"))
			}
		}
		return ""
	}
	cf, gf := flags(out), flags(gen)
	if cf == "" || cf != gf {
		t.Errorf("baseline knobs drifted between check (%q) and regenerate (%q)", cf, gf)
	}
}

// obs-smoke must keep both halves: the race-enabled ObsSmoke test pass
// over the packages that define those tests, and the real-binary leg
// (sgserve up, sgtop -once -json reading a frame).
func TestMakeObsSmokeComposition(t *testing.T) {
	t.Parallel()
	out, err := runMake(t, "obs-smoke", "GO=echo", "--just-print")
	if err != nil {
		t.Fatalf("obs-smoke dry-run failed:\n%s", out)
	}
	for _, want := range []string{
		"-race", "TestObsSmoke", "./internal/fleet/", "./internal/resultcache/",
		"./cmd/sgserve", "./cmd/sgtop", "-once -json",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("obs-smoke recipe missing %q:\n%s", want, out)
		}
	}
}

// The chaos repetition count must be overridable (the nightly workflow
// passes FLEET_CHAOS_COUNT=20), default to a quick 3-pass, and keep the
// race detector on — single-pass chaos under no race detector would
// quietly stop exercising the interleavings the suite exists to catch.
func TestMakeFleetChaosParameterized(t *testing.T) {
	t.Parallel()
	out, err := runMake(t, "fleet-chaos", "GO=echo", "--just-print")
	if err != nil {
		t.Fatalf("fleet-chaos dry-run failed:\n%s", out)
	}
	for _, want := range []string{"-race", "-count=3", "TestChaos", "./internal/fleet/"} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet-chaos recipe missing %q:\n%s", want, out)
		}
	}
	out, err = runMake(t, "fleet-chaos", "FLEET_CHAOS_COUNT=20", "GO=echo", "--just-print")
	if err != nil {
		t.Fatalf("fleet-chaos FLEET_CHAOS_COUNT=20 dry-run failed:\n%s", out)
	}
	if !strings.Contains(out, "-count=20") {
		t.Errorf("FLEET_CHAOS_COUNT=20 override ignored:\n%s", out)
	}
}

// Offline behavior: with an empty PATH-resolvable toolset the lint legs
// must skip (exit 0), not fail — the offline-dev-machine contract. When
// the pinned tools are installable the legs run them instead; either way
// the target succeeds unless a tool that ran found problems.
func TestMakeLintTolerantOffline(t *testing.T) {
	t.Parallel()
	out, err := runMake(t, "lint")
	if err != nil {
		// A real finding is a legitimate failure — distinguish it from a
		// tooling error by requiring diagnostic output.
		if !strings.Contains(out, ".go:") {
			t.Fatalf("make lint failed without findings:\n%s", out)
		}
		t.Logf("lint reported findings (accepted):\n%s", out)
	}
}

// Version pins keep CI reproducible: the install lines must reference
// explicit versions, never @latest.
func TestMakeLintVersionsPinned(t *testing.T) {
	t.Parallel()
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	mf := string(raw)
	if strings.Contains(mf, "@latest") {
		t.Fatal("Makefile installs a tool @latest; pin it")
	}
	for _, v := range []string{"STATICCHECK_VERSION", "GOVULNCHECK_VERSION"} {
		if !strings.Contains(mf, v) {
			t.Errorf("missing %s pin", v)
		}
	}
}

// Every path the Makefile hands to go run/go test must exist, so a
// renamed cmd can't silently break bench or the smokes.
func TestMakefileReferencedPathsExist(t *testing.T) {
	t.Parallel()
	for _, p := range []string{"cmd/bench2json", "cmd/sgprof", "cmd/sgperf", "cmd/sgserve", "cmd/sgworker", "cmd/sgtop", "cmd/sgattack", "internal/ecc", "internal/memctrl", "internal/fleet", "internal/snapshot", "internal/payload", "internal/synth", "examples", "testdata/synth_baseline.json"} {
		if _, err := os.Stat(filepath.FromSlash(p)); err != nil {
			t.Errorf("Makefile-referenced path %s: %v", p, err)
		}
	}
}
