package safeguard_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"safeguard/internal/experiments"
	"safeguard/internal/sim"
	"safeguard/internal/telemetry"
)

// The paper's performance numbers as one golden: Figures 7, 11 and 12,
// Figure 13 at 8/16/40/80 MAC cycles, and the full-SGX extension on
// sgperf's five workloads, all at a reduced preset (every workload, one
// seed, 30k+10k instructions per core, attribution on). Every reported
// number is pinned as float64 bits under a readable name, and each
// figure's merged telemetry snapshot as a SHA-256 of its JSON, so a
// failure names the number that moved. Regenerate intentionally with
//
//	go test . -run TestPaperGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// paperGolden is the file's shape: float64 bits as hex strings, and one
// telemetry digest per figure.
type paperGolden struct {
	Values    map[string]string `json:"values"`
	Telemetry map[string]string `json:"telemetry_sha256"`
}

func goldenPerfConfig() experiments.PerfConfig {
	cfg := experiments.QuickPerf()
	cfg.InstrPerCore = 30_000
	cfg.WarmupInstr = 10_000
	cfg.Seeds = []uint64{1}
	cfg.Attrib = true
	return cfg
}

func computePaperGolden(t *testing.T) paperGolden {
	t.Helper()
	ctx := context.Background()
	g := paperGolden{Values: map[string]string{}, Telemetry: map[string]string{}}
	put := func(name string, v float64) { g.Values[name] = fmt.Sprintf("%016x", math.Float64bits(v)) }
	perf := func(fig string, res experiments.PerfResult) {
		for _, row := range res.Rows {
			put(fig+"/"+row.Workload+"/base_ipc", row.BaseIPC)
			for _, s := range res.Schemes {
				put(fig+"/"+row.Workload+"/slowdown/"+s.String(), row.Slowdown[s])
			}
		}
		for _, s := range res.Schemes {
			put(fig+"/average/"+s.String(), res.Average(s))
		}
	}
	digest := func(fig string, reg *telemetry.Registry) {
		blob, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		g.Telemetry[fig] = hex.EncodeToString(sum[:])
	}
	sweeps := []struct {
		fig string
		run func(experiments.PerfConfig) (experiments.PerfResult, error)
	}{
		{"fig7", func(c experiments.PerfConfig) (experiments.PerfResult, error) { return experiments.Figure7(ctx, c) }},
		{"fig11", func(c experiments.PerfConfig) (experiments.PerfResult, error) { return experiments.Figure11(ctx, c) }},
		{"fig12", func(c experiments.PerfConfig) (experiments.PerfResult, error) { return experiments.Figure12(ctx, c) }},
		{"fullsgx", func(c experiments.PerfConfig) (experiments.PerfResult, error) {
			c.Workloads = []string{"mcf", "omnetpp", "lbm", "gcc", "leela"}
			return experiments.RunSchemes(ctx, c, []sim.Scheme{sim.SafeGuard, sim.SGXStyle, sim.SGXFullStyle})
		}},
	}
	for _, s := range sweeps {
		cfg := goldenPerfConfig()
		cfg.Telemetry = telemetry.NewRegistry()
		res, err := s.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", s.fig, err)
		}
		perf(s.fig, res)
		digest(s.fig, cfg.Telemetry)
	}
	cfg := goldenPerfConfig()
	cfg.Telemetry = telemetry.NewRegistry()
	points, err := experiments.Figure13(ctx, cfg, []int64{8, 16, 40, 80})
	if err != nil {
		t.Fatalf("fig13: %v", err)
	}
	for _, p := range points {
		for s, v := range p.Average {
			put(fmt.Sprintf("fig13/%d/average/%s", p.MACLatencyCPU, s), v)
		}
	}
	digest("fig13", cfg.Telemetry)
	return g
}

// TestPaperGolden pins every number the performance figure suite reports.
func TestPaperGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the figure suite at a reduced preset")
	}
	got := computePaperGolden(t)
	path := filepath.Join("testdata", "paper_golden.json")
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
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
	var want paperGolden
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	for _, name := range sortedNames(want.Values, got.Values) {
		w, g := want.Values[name], got.Values[name]
		if w != g {
			t.Errorf("%s: got %s, golden %s", name, bitsString(g), bitsString(w))
		}
	}
	for _, fig := range sortedNames(want.Telemetry, got.Telemetry) {
		if w, g := want.Telemetry[fig], got.Telemetry[fig]; w != g {
			t.Errorf("%s telemetry snapshot: sha256 %q, golden %q", fig, g, w)
		}
	}
}

// sortedNames is the sorted union of two maps' keys.
func sortedNames(a, b map[string]string) []string {
	seen := map[string]bool{}
	var names []string
	for _, m := range []map[string]string{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				names = append(names, k)
			}
		}
	}
	sort.Strings(names)
	return names
}

// bitsString renders stored float64 bits with their value, or "missing".
func bitsString(hexBits string) string {
	var u uint64
	if _, err := fmt.Sscanf(hexBits, "%x", &u); err != nil {
		return "missing"
	}
	return fmt.Sprintf("%v (%s)", math.Float64frombits(u), hexBits)
}
