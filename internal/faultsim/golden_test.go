package faultsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"safeguard/internal/telemetry"
)

// Lifetime goldens: a fixed set of small seeded studies — every registered
// evaluator at 1x and 10x FIT, Chipkill under scrubbing and under
// retirement, and one adaptive study — each run on two workers with
// telemetry on. The SHA-256 of the study's Result and telemetry snapshot
// (as JSON) is pinned in testdata/lifetime_golden.json beside the module
// and failure counts. Regenerate intentionally with
//
//	go test ./internal/faultsim -run TestLifetimeGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// lifetimeGoldenRecord is one study's pinned outcome; Modules and Failed
// ride beside the hash so a diff is readable.
type lifetimeGoldenRecord struct {
	Modules int    `json:"modules"`
	Failed  int    `json:"failed"`
	SHA256  string `json:"sha256"`
}

type lifetimeGoldenCase struct {
	name string
	eval Evaluator
	cfg  Config
}

func lifetimeGoldenCases(t *testing.T) []lifetimeGoldenCase {
	base := Config{Modules: 20_000, Years: 7, Seed: 17, Workers: 2}
	var cases []lifetimeGoldenCase
	for _, name := range EvaluatorNames() {
		eval, err := EvaluatorByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, fit := range []float64{1, 10} {
			cfg := base
			cfg.FITScale = fit
			cases = append(cases, lifetimeGoldenCase{fmt.Sprintf("%s/fit%g", name, fit), eval, cfg})
		}
	}
	scrub := base
	scrub.FITScale, scrub.ScrubIntervalHours = 10, 24
	retire := base
	retire.FITScale, retire.RetireIntervalHours = 10, 168
	adaptive := base
	adaptive.Modules, adaptive.FITScale, adaptive.CIHalfWidth = 400_000, 10, 0.002
	return append(cases,
		lifetimeGoldenCase{"Chipkill/fit10/scrub24", ChipkillEval{}, scrub},
		lifetimeGoldenCase{"Chipkill/fit10/retire168", ChipkillEval{}, retire},
		lifetimeGoldenCase{"SECDED/fit10/adaptive", SECDEDEval{}, adaptive},
	)
}

func computeLifetimeGolden(t *testing.T) map[string]lifetimeGoldenRecord {
	out := make(map[string]lifetimeGoldenRecord)
	for _, c := range lifetimeGoldenCases(t) {
		reg := telemetry.NewRegistry()
		cfg := c.cfg
		cfg.Telemetry = reg
		res, err := Run(c.eval, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res.Config.Telemetry = nil
		blob, err := json.Marshal(struct {
			Result    Result
			Telemetry telemetry.Snapshot
		}{res, reg.Snapshot()})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		out[c.name] = lifetimeGoldenRecord{Modules: res.Modules, Failed: res.Failed, SHA256: hex.EncodeToString(sum[:])}
	}
	return out
}

func TestLifetimeGolden(t *testing.T) {
	t.Parallel()
	got := computeLifetimeGolden(t)
	path := filepath.Join("testdata", "lifetime_golden.json")
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want map[string]lifetimeGoldenRecord
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file covers %d studies, computed %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: in golden file but not computed", name)
			continue
		}
		if g != w {
			t.Errorf("%s: %d modules %d failed %s, golden %d modules %d failed %s",
				name, g.Modules, g.Failed, g.SHA256, w.Modules, w.Failed, w.SHA256)
		}
	}
}
