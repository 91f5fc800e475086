package sim

import (
	"reflect"
	"strings"
	"testing"

	"safeguard/internal/telemetry"
)

// TestParseSchemeRoundTrip: every scheme's String() must parse back to
// itself, exactly — the registry contract the cmds rely on.
func TestParseSchemeRoundTrip(t *testing.T) {
	t.Parallel()
	for _, s := range Schemes() {
		got, err := ParseScheme(s.String())
		if err != nil {
			t.Fatalf("ParseScheme(%q) failed: %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("ParseScheme(%q) = %v, want %v", s.String(), got, s)
		}
	}
}

func TestParseSchemeAliases(t *testing.T) {
	t.Parallel()
	cases := map[string]Scheme{
		"baseline":  Baseline,
		"SafeGuard": SafeGuard,
		"safeguard": SafeGuard,
		"sgx":       SGXStyle,
		"SGX-style": SGXStyle,
		"synergy":   SynergyStyle,
		"sgx-full":  SGXFullStyle,
	}
	for name, want := range cases {
		got, err := ParseScheme(name)
		if err != nil {
			t.Fatalf("ParseScheme(%q) failed: %v", name, err)
		}
		if got != want {
			t.Fatalf("ParseScheme(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestParseSchemeUnknown(t *testing.T) {
	t.Parallel()
	_, err := ParseScheme("not-a-scheme")
	if err == nil {
		t.Fatal("unknown scheme must error")
	}
	if !strings.Contains(err.Error(), "Baseline") {
		t.Fatalf("error should name the valid set, got: %v", err)
	}
}

func TestSchemeNamesMatchSchemes(t *testing.T) {
	t.Parallel()
	names := SchemeNames()
	schemes := Schemes()
	if len(names) != len(schemes) {
		t.Fatalf("SchemeNames has %d entries, Schemes %d", len(names), len(schemes))
	}
	for i, s := range schemes {
		if names[i] != s.String() {
			t.Fatalf("SchemeNames[%d] = %q, want %q", i, names[i], s.String())
		}
	}
}

// TestRunWithMitigationPlugin runs a full simulation with an in-controller
// mitigation attached and checks its stats surface in the result.
func TestRunWithMitigationPlugin(t *testing.T) {
	t.Parallel()
	cfg := testCfg("mcf", Baseline)
	cfg.Mitigation = "graphene"
	cfg.RHThreshold = 4800
	res, err := NewSystem(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	st, ok := res.PluginStats["graphene"]
	if !ok {
		t.Fatalf("result missing graphene plugin stats: %v", res.PluginStats)
	}
	if st["acts"] == 0 {
		t.Fatal("plugin observed no activations over a full run")
	}
}

func TestRunWithUnknownMitigationErrors(t *testing.T) {
	t.Parallel()
	cfg := testCfg("gcc", Baseline)
	cfg.Mitigation = "bogus"
	if _, err := NewSystem(cfg).Run(); err == nil {
		t.Fatal("unknown mitigation must surface as a Run error")
	}
}

// TestMitigationPerturbsLittle: an attached mitigation may issue VRRs
// (which really occupy banks), but PARA sized for the Table I threshold
// fires so rarely that benign-workload IPC must stay within noise — the
// paper's premise that threshold-sized probabilistic defenses are cheap.
// (TRR is the contrast: its per-REF victim refreshes cost several percent
// when modeled as explicit VRR commands instead of hiding inside tRFC.)
func TestMitigationPerturbsLittle(t *testing.T) {
	t.Parallel()
	base, err := NewSystem(testCfg("gcc", Baseline)).Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg("gcc", Baseline)
	cfg.Mitigation = "para"
	cfg.RHThreshold = 4800
	with, err := NewSystem(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Per-core IPC is chaotic at this budget (timing shifts reshuffle
	// which core wins contention), so compare the aggregate.
	var sumBase, sumWith float64
	for i := range base.IPC {
		sumBase += base.IPC[i]
		sumWith += with.IPC[i]
	}
	if diff := (sumBase - sumWith) / sumBase; diff > 0.02 || diff < -0.02 {
		t.Fatalf("PARA moved aggregate IPC by %.2f%% (%.4f -> %.4f); in-controller defenses must stay cheap",
			diff*100, sumBase, sumWith)
	}
}

// TestBaselineIgnoresMACLatency pins the invariant the perf plan's
// deduplication rests on: Baseline charges no MAC check (joinLeg zeroes
// the term), so its result and its telemetry are the same at every MAC
// latency and one Baseline cell serves every Figure 13 point. SafeGuard
// is the control: the same sweep must move it.
func TestBaselineIgnoresMACLatency(t *testing.T) {
	t.Parallel()
	run := func(name string, scheme Scheme, mitigation string, mac int64) (Result, telemetry.Snapshot) {
		cfg := testCfg(name, scheme)
		cfg.InstrPerCore, cfg.WarmupInstr = 20_000, 10_000
		cfg.MACLatencyCPU = mac
		cfg.Attrib = true
		cfg.Mitigation = mitigation
		cfg.Telemetry = telemetry.NewRegistry()
		res, err := NewSystem(cfg).Run()
		if err != nil {
			t.Fatalf("%s/%v/%s at MAC %d: %v", name, scheme, mitigation, mac, err)
		}
		return res, cfg.Telemetry.Snapshot()
	}
	cases := []struct{ workload, mitigation string }{
		{"mcf", ""}, {"omnetpp", ""}, {"lbm", ""}, {"leela", ""}, {"mcf", "para"},
	}
	for _, c := range cases {
		wantRes, wantSnap := run(c.workload, Baseline, c.mitigation, 8)
		for _, mac := range []int64{16, 40, 80} {
			res, snap := run(c.workload, Baseline, c.mitigation, mac)
			if !reflect.DeepEqual(res, wantRes) {
				t.Errorf("%s/%s: Baseline result at MAC %d differs from MAC 8", c.workload, c.mitigation, mac)
			}
			if !reflect.DeepEqual(snap, wantSnap) {
				t.Errorf("%s/%s: Baseline telemetry at MAC %d differs from MAC 8", c.workload, c.mitigation, mac)
			}
		}
	}
	sg8, _ := run("mcf", SafeGuard, "", 8)
	sg80, _ := run("mcf", SafeGuard, "", 80)
	if reflect.DeepEqual(sg8.CoreCycles, sg80.CoreCycles) {
		t.Fatal("SafeGuard's cycles do not depend on MAC latency: the control is inert")
	}
}
