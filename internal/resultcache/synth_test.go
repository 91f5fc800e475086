package resultcache

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"safeguard/internal/rowhammer"
	"safeguard/internal/synth"
)

// tinySynth is the fast unit-test synthesis request: a 64-row bank and
// a search small enough for subsecond runs.
func tinySynth() *Request {
	return &Request{Kind: KindSynth, Synth: &SynthRequest{
		Bank: rowhammer.Config{
			Rows: 64, Threshold: 120, LinesPerRow: 8,
			VulnerableCellsPerRow: 16, FlipsPerCrossing: 4, Seed: 9,
		},
		Mitigations: []string{"none", "para"},
		Thresholds:  []int{120},
		Seed:        7,
		Budget:      400,
		Generations: 2,
		Population:  4,
	}}
}

func TestSynthNormalizeMaterializesDefaults(t *testing.T) {
	t.Parallel()
	req := &Request{Kind: KindSynth}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	s := req.Synth
	if s.Bank.Rows != rowhammer.DefaultConfig().Rows {
		t.Fatalf("bank default not materialized: %+v", s.Bank)
	}
	if len(s.Mitigations) != 5 || len(s.Thresholds) != 1 || s.Thresholds[0] != s.Bank.Threshold {
		t.Fatalf("sweep defaults = %v x %v", s.Mitigations, s.Thresholds)
	}
	if s.Budget != 3000 || s.Generations != 6 || s.Population != 12 || s.Engine != "event" {
		t.Fatalf("search defaults = %+v", s)
	}
}

func TestSynthHashCanonicalization(t *testing.T) {
	t.Parallel()
	a := tinySynth()
	b := tinySynth()
	// Aliased mitigation spellings and materialized engine default must
	// collapse onto one identity.
	b.Synth.Mitigations = []string{"None", "  PARA "}
	b.Synth.Engine = "event"
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("aliased spellings hash differently: %s vs %s", ha, hb)
	}
	// Semantic changes must separate.
	seen := map[string]string{"base": ha}
	variants := map[string]*Request{
		"seed":      tinySynth(),
		"budget":    tinySynth(),
		"threshold": tinySynth(),
	}
	variants["seed"].Synth.Seed = 8
	variants["budget"].Synth.Budget = 401
	variants["threshold"].Synth.Thresholds = []int{121}
	for name, req := range variants {
		h, err := req.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for prev, ph := range seen {
			if h == ph {
				t.Fatalf("%s collides with %s: %s", name, prev, h)
			}
		}
		seen[name] = h
	}
}

// Adding the synth kind must not move any pre-existing hash: the synth
// field is omitted from other kinds' canonical JSON.
func TestSynthFieldAbsentFromOtherKinds(t *testing.T) {
	t.Parallel()
	for _, req := range []*Request{tinyPerf(), tinyRel()} {
		canon, err := req.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(canon), "synth") {
			t.Fatalf("%s canonical JSON leaks the synth field: %s", req.Kind, canon)
		}
	}
}

func TestSynthNormalizeRejections(t *testing.T) {
	t.Parallel()
	mut := func(f func(*SynthRequest)) *Request {
		req := tinySynth()
		f(req.Synth)
		return req
	}
	cases := map[string]*Request{
		"cross payload synth": {Kind: KindSynth, Perf: &PerfRequest{}},
		"synth on perf":       {Kind: KindPerf, Synth: &SynthRequest{}},
		"synth on rel":        {Kind: KindRel, Synth: &SynthRequest{}},
		"unknown mitigation":  mut(func(s *SynthRequest) { s.Mitigations = []string{"moat"} }),
		"dup mitigation":      mut(func(s *SynthRequest) { s.Mitigations = []string{"para", "PARA"} }),
		"zero threshold":      mut(func(s *SynthRequest) { s.Thresholds = []int{0} }),
		"budget cap":          mut(func(s *SynthRequest) { s.Budget = synthBudgetCap + 1 }),
		"generations cap":     mut(func(s *SynthRequest) { s.Generations = synthGenerationsCap + 1 }),
		"population cap":      mut(func(s *SynthRequest) { s.Population = synthPopulationCap + 1 }),
		"negative cycles":     mut(func(s *SynthRequest) { s.MaxCycles = -1 }),
		"unknown engine":      mut(func(s *SynthRequest) { s.Engine = "warp" }),
		"cycle engine":        mut(func(s *SynthRequest) { s.Engine = "cycle" }),
		"tiny bank":           mut(func(s *SynthRequest) { s.Bank.Rows = 8 }),
		"cells cap": mut(func(s *SynthRequest) {
			ths := make([]int, synthCellsCap+1)
			for i := range ths {
				ths[i] = 100 + i
			}
			s.Thresholds = ths
		}),
	}
	for name, req := range cases {
		if err := req.Normalize(); err == nil {
			t.Errorf("%s: Normalize accepted", name)
		}
	}
}

func TestSynthExecuteProducesStableValidArtifact(t *testing.T) {
	t.Parallel()
	req := tinySynth()
	raw, err := req.Execute(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := req.ValidateResult(raw); err != nil {
		t.Fatalf("fresh artifact fails its own validator: %v", err)
	}
	m, err := synth.ParseMatrix(raw)
	if err != nil {
		t.Fatalf("artifact is not a canonical matrix: %v", err)
	}
	if len(m.Cells) != 2 || m.Cells[0].Mitigation != "none" || m.Cells[1].Mitigation != "para" {
		t.Fatalf("cells = %+v", m.Cells)
	}
	if !m.Cells[0].Defeated {
		t.Fatal("unprotected bank not defeated")
	}
	again, err := tinySynth().Execute(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again) {
		t.Fatalf("artifact bytes unstable:\n%s\nvs\n%s", raw, again)
	}
}

func TestSynthValidateResultRejections(t *testing.T) {
	t.Parallel()
	req := tinySynth()
	raw, err := req.Execute(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var m synth.Matrix
	corrupt := func(f func(*synth.Matrix)) json.RawMessage {
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		f(&m)
		b, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := map[string]json.RawMessage{
		"empty":         nil,
		"unknown field": json.RawMessage(`{"schema":"synth-matrix/1","bogus":1}`),
		"wrong schema":  corrupt(func(m *synth.Matrix) { m.Schema = "synth-matrix/0" }),
		"alien cell":    corrupt(func(m *synth.Matrix) { m.Cells[0].Mitigation = "moat" }),
		"defeat no budget": corrupt(func(m *synth.Matrix) {
			m.Cells[0].Defeated = true
			m.Cells[0].MinBudget = 0
		}),
		"mangled payload": corrupt(func(m *synth.Matrix) { m.Cells[0].Payload = "JMP 3\n" }),
	}
	for name, bad := range cases {
		if err := req.ValidateResult(bad); err == nil {
			t.Errorf("%s: ValidateResult accepted", name)
		}
	}
	if err := req.ValidateResult(raw); err != nil {
		t.Fatalf("pristine artifact rejected: %v", err)
	}
}

func TestSynthString(t *testing.T) {
	t.Parallel()
	req := tinySynth()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	s := req.String()
	if !strings.Contains(s, "synth[") || !strings.Contains(s, "para") {
		t.Fatalf("String() = %q", s)
	}
}
