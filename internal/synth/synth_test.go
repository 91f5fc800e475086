package synth

import (
	"bytes"
	"context"
	"math/rand/v2"
	"strings"
	"testing"

	"safeguard/internal/rowhammer"
	"safeguard/internal/telemetry"
)

// smokeConfig is a search small enough for test time but hot enough
// that the unprotected bank is defeated within the budget.
func smokeConfig() Config {
	return Config{
		Bank: rowhammer.Config{
			Rows: 64, Threshold: 120, LinesPerRow: 8,
			VulnerableCellsPerRow: 16, FlipsPerCrossing: 4, Seed: 9,
		},
		Mitigations: []string{"none", "para"},
		Thresholds:  []int{120},
		Seed:        7,
		Budget:      400,
		Generations: 3,
		Population:  6,
	}
}

func TestSearchDeterministicAcrossRunsAndParallelism(t *testing.T) {
	t.Parallel()
	cfgs := []Config{smokeConfig(), smokeConfig(), smokeConfig()}
	cfgs[1].Parallelism = 1
	cfgs[2].Parallelism = 2
	var first []byte
	for i, cfg := range cfgs {
		m, err := Search(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b
			continue
		}
		if !bytes.Equal(b, first) {
			t.Fatalf("run %d (parallelism %d) diverged:\n%s\nvs\n%s", i, cfg.Parallelism, b, first)
		}
	}
	// The canonical bytes must re-parse to the same matrix bytes.
	back, err := ParseMatrix(first)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := back.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b2, first) {
		t.Fatal("matrix JSON round trip not byte-stable")
	}
}

func TestSearchDefeatsUnprotectedBank(t *testing.T) {
	t.Parallel()
	cfg := smokeConfig()
	cfg.Mitigations = []string{"none"}
	m, err := Search(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 1 {
		t.Fatalf("got %d cells", len(m.Cells))
	}
	c := m.Cells[0]
	if !c.Defeated || c.Flips == 0 {
		t.Fatalf("unprotected bank not defeated: %+v", c)
	}
	if c.MinBudget < 1 || c.MinBudget > c.Activations {
		t.Fatalf("min budget %d outside [1, %d]", c.MinBudget, c.Activations)
	}
	// A threshold crossing needs at least Threshold distance-1
	// activations; the cheapest defeat cannot undercut physics.
	if c.MinBudget < cfg.Bank.Threshold {
		t.Fatalf("min budget %d below the RH-threshold %d", c.MinBudget, cfg.Bank.Threshold)
	}
	if c.Evals == 0 {
		t.Fatal("no evaluations recorded")
	}
	if !strings.HasPrefix(c.Payload, "payload/1 synth[") {
		t.Fatalf("payload is not a canonical synth program: %q", c.Payload)
	}
}

func TestSearchReportsProgress(t *testing.T) {
	t.Parallel()
	var pv telemetry.ProgressVar
	ctx := telemetry.WithProgress(context.Background(), &pv)
	if _, err := Search(ctx, smokeConfig()); err != nil {
		t.Fatal(err)
	}
	_, p, ok := pv.Load()
	if !ok || p.Phase != "synth" {
		t.Fatalf("no synth progress reported: %+v", p)
	}
	if p.Done != p.Total || p.Total != 2 {
		t.Fatalf("progress ended at %d/%d, want 2/2", p.Done, p.Total)
	}
}

func TestSearchCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, smokeConfig()); err == nil {
		t.Fatal("cancelled search returned no error")
	}
}

func TestConfigValidate(t *testing.T) {
	t.Parallel()
	bad := map[string]func(*Config){
		"unknown mitigation": func(c *Config) { c.Mitigations = []string{"moat"} },
		"zero threshold":     func(c *Config) { c.Thresholds = []int{0} },
		"negative budget":    func(c *Config) { c.Budget = -1 },
		"tiny population":    func(c *Config) { c.Population = 1 },
		"zero generations":   func(c *Config) { c.Generations = -1 },
		"unknown engine":     func(c *Config) { c.Engine = "warp" },
		"cycle engine":       func(c *Config) { c.Engine = "cycle" },
		"tiny bank":          func(c *Config) { c.Bank.Rows = 8 },
		"invalid bank":       func(c *Config) { c.Bank = rowhammer.Config{Rows: -4} },
	}
	for name, mut := range bad {
		cfg := smokeConfig()
		cfg.Normalize()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", name)
		}
		if _, err := Search(context.Background(), cfg); err == nil {
			t.Errorf("%s: Search accepted", name)
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	t.Parallel()
	var c Config
	c.Normalize()
	if err := c.Validate(); err != nil {
		t.Fatalf("normalized zero config invalid: %v", err)
	}
	if len(c.Mitigations) != 5 || c.Thresholds[0] != c.Bank.Threshold {
		t.Fatalf("defaults not filled: %+v", c)
	}
}

func TestParseMatrixRejections(t *testing.T) {
	t.Parallel()
	if _, err := ParseMatrix([]byte(`{"schema":"synth-matrix/0"}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := ParseMatrix([]byte(`{"schema":"synth-matrix/1","bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseMatrix([]byte(`{`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestCompareBaseline(t *testing.T) {
	t.Parallel()
	mk := func(cells ...Cell) *Matrix {
		return &Matrix{Schema: MatrixSchema, Cells: cells}
	}
	base := mk(
		Cell{Mitigation: "none", Threshold: 120, Defeated: true, MinBudget: 150},
		Cell{Mitigation: "para", Threshold: 120},
		Cell{Mitigation: "trr", Threshold: 120, Defeated: true, MinBudget: 400},
	)
	cases := map[string]struct {
		cur     *Matrix
		wantErr []string
	}{
		"identical": {mk(base.Cells...), nil},
		"improvements pass": {mk(
			Cell{Mitigation: "none", Threshold: 120, Defeated: true, MinBudget: 200},
			Cell{Mitigation: "para", Threshold: 120},
			Cell{Mitigation: "trr", Threshold: 120}, // no longer defeated
			Cell{Mitigation: "extra", Threshold: 120, Defeated: true, MinBudget: 1},
		), nil},
		"cheaper defeat": {mk(
			Cell{Mitigation: "none", Threshold: 120, Defeated: true, MinBudget: 120},
			Cell{Mitigation: "para", Threshold: 120},
			Cell{Mitigation: "trr", Threshold: 120, Defeated: true, MinBudget: 400},
		), []string{"none/th=120", "defeated at 120 acts, baseline needed 150"}},
		"newly defeated": {mk(
			Cell{Mitigation: "none", Threshold: 120, Defeated: true, MinBudget: 150},
			Cell{Mitigation: "para", Threshold: 120, Defeated: true, MinBudget: 90},
			Cell{Mitigation: "trr", Threshold: 120, Defeated: true, MinBudget: 400},
		), []string{"para/th=120", "newly defeated"}},
		"missing cell": {mk(
			Cell{Mitigation: "none", Threshold: 120, Defeated: true, MinBudget: 150},
		), []string{"para/th=120", "trr/th=120", "missing"}},
	}
	for name, c := range cases {
		err := CompareBaseline(c.cur, base)
		if len(c.wantErr) == 0 {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: regression not flagged", name)
			continue
		}
		for _, want := range c.wantErr {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q missing %q", name, err, want)
			}
		}
	}
}

func TestTableRendersEveryCell(t *testing.T) {
	t.Parallel()
	m, err := Search(context.Background(), smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl := m.Table()
	for _, c := range m.Cells {
		if !strings.Contains(tbl, c.Mitigation) {
			t.Errorf("table missing mitigation %q:\n%s", c.Mitigation, tbl)
		}
	}
	if strings.Contains(tbl, "payload/1") {
		t.Error("table leaks the raw payload header instead of the program name")
	}
}

// Every genome the mutator can reach must render to a valid program:
// the clamp is the searcher's safety net, so hammer it.
func TestMutationsAlwaysRenderValidPrograms(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(1, 2))
	for _, rows := range []int{16, 64, 1024} {
		g := genome{aggr: []int{rows / 2}}.clamp(rows)
		for i := 0; i < 2000; i++ {
			g = mutate(g, rng, rows)
			p := g.render(500)
			if err := p.Validate(); err != nil {
				t.Fatalf("rows=%d step %d: genome %+v renders invalid program: %v", rows, i, g, err)
			}
			for _, a := range g.aggr {
				if a < 2 || a > rows-3 {
					t.Fatalf("rows=%d: aggressor %d escaped the clamp", rows, a)
				}
			}
			last := g.decoyBase + (g.decoys-1)*g.decoyStride
			if g.decoys > 0 && (g.decoyBase < 2 || last > rows-3) {
				t.Fatalf("rows=%d: decoy window [%d,%d] escaped the clamp", rows, g.decoyBase, last)
			}
		}
	}
}

func TestGenomeRenderBudget(t *testing.T) {
	t.Parallel()
	g := genome{aggr: []int{10, 12}, gap: 5, decoys: 3, decoyBase: 30, decoyStride: 2}.clamp(64)
	p := g.render(400)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Acts() < 400 {
		t.Fatalf("rendered program holds %d acts, budget needs 400", p.Acts())
	}
	// One iteration short of two: a budget below one period renders flat.
	flat := g.render(3)
	if flat.Acts() != 5 {
		t.Fatalf("single-iteration render holds %d acts, want one period (5)", flat.Acts())
	}
}
