package resultcache

import (
	"strings"
	"testing"
)

// tinyPerf is the fast unit-test request: one cache-resident workload,
// one seed, budgets small enough for subsecond runs.
func tinyPerf() *Request {
	return &Request{Kind: KindPerf, Perf: &PerfRequest{
		Schemes:      []string{"SafeGuard"},
		Workloads:    []string{"leela"},
		Seeds:        []uint64{1},
		InstrPerCore: 1500,
		WarmupInstr:  500,
	}}
}

func tinyRel() *Request {
	return &Request{Kind: KindRel, Rel: &RelRequest{
		Evaluators: []string{"secded"},
		Modules:    20_000,
	}}
}

func TestHashDeterministicAcrossSpellings(t *testing.T) {
	t.Parallel()
	// Aliased scheme names, implicit Baseline, and materialized defaults
	// must all collapse onto one canonical identity.
	a := &Request{Kind: KindPerf, Perf: &PerfRequest{
		Schemes: []string{"safeguard"}, Workloads: []string{"leela"},
		Seeds: []uint64{1}, InstrPerCore: 1500, WarmupInstr: 500,
	}}
	b := &Request{Kind: KindPerf, Perf: &PerfRequest{
		Schemes: []string{"Baseline", "SafeGuard"}, Workloads: []string{"leela"},
		Seeds: []uint64{1}, InstrPerCore: 1500, WarmupInstr: 500, MACLatencyCPU: 8,
	}}
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
	if !ValidHash(ha) {
		t.Fatalf("hash %q fails its own shape check", ha)
	}
}

// TestHashPins pins request identities as constants: a change to the
// canonical JSON (a renamed field, a new default, a dropped option) that
// moves any of these hashes orphans every stored result and must be made
// on purpose.
func TestHashPins(t *testing.T) {
	t.Parallel()
	explicitEngine := tinySynth()
	explicitEngine.Synth.Engine = "event"
	pins := []struct {
		name string
		req  *Request
		want string
	}{
		{"default synth", &Request{Kind: KindSynth}, "c796f2fb0fa84b03abb04701f8231eb860f32145802f76f63d6adddeb19269e1"},
		{"tiny synth", tinySynth(), "df9290c4fef38f7fdc07c80dd8d4ed7c608718bdfb1e4aa5cf2e97cb6824dc6b"},
		{"tiny synth, explicit engine", explicitEngine, "df9290c4fef38f7fdc07c80dd8d4ed7c608718bdfb1e4aa5cf2e97cb6824dc6b"},
		{"tiny perf", tinyPerf(), "ac0a1378ca07594d20004f70d19c2f160dd5cea14295012f96edc3388ee3e670"},
		{"tiny rel", tinyRel(), "b164a2a4585523f37609b1f11342b7f9b75ffbdf97d5cc42e870144148912f3d"},
	}
	for _, p := range pins {
		got, err := p.req.Hash()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got != p.want {
			t.Errorf("%s: hash %s, pinned %s", p.name, got, p.want)
		}
	}
}

func TestHashSeparatesSemanticChanges(t *testing.T) {
	t.Parallel()
	base, err := tinyPerf().Hash()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{"base": base}
	variants := map[string]*Request{
		"seed":       {Kind: KindPerf, Perf: &PerfRequest{Schemes: []string{"SafeGuard"}, Workloads: []string{"leela"}, Seeds: []uint64{2}, InstrPerCore: 1500, WarmupInstr: 500}},
		"scheme":     {Kind: KindPerf, Perf: &PerfRequest{Schemes: []string{"sgx"}, Workloads: []string{"leela"}, Seeds: []uint64{1}, InstrPerCore: 1500, WarmupInstr: 500}},
		"mitigation": {Kind: KindPerf, Perf: &PerfRequest{Schemes: []string{"SafeGuard"}, Workloads: []string{"leela"}, Seeds: []uint64{1}, InstrPerCore: 1500, WarmupInstr: 500, Mitigation: "para"}},
		"kind":       tinyRel(),
	}
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

func TestNormalizeMaterializesDefaults(t *testing.T) {
	t.Parallel()
	req := &Request{Kind: KindPerf}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	p := req.Perf
	if p.InstrPerCore != 400_000 || p.WarmupInstr != 200_000 || p.MACLatencyCPU != 8 {
		t.Fatalf("perf defaults = %+v", p)
	}
	if len(p.Workloads) != 15 || len(p.Seeds) != 2 || len(p.Schemes) != 1 {
		t.Fatalf("perf list defaults = %+v", p)
	}

	rel := &Request{Kind: KindRel}
	if err := rel.Normalize(); err != nil {
		t.Fatal(err)
	}
	l := rel.Rel
	if l.Modules != 300_000 || l.Years != 7 || l.FITScale != 1 || l.Seed != 42 {
		t.Fatalf("rel defaults = %+v", l)
	}
	if len(l.Evaluators) != 2 {
		t.Fatalf("rel evaluator defaults = %v", l.Evaluators)
	}
}

func TestNormalizeRejections(t *testing.T) {
	t.Parallel()
	cases := map[string]*Request{
		"unknown kind":      {Kind: "fuzz"},
		"cross payload":     {Kind: KindPerf, Rel: &RelRequest{}},
		"unknown scheme":    {Kind: KindPerf, Perf: &PerfRequest{Schemes: []string{"tetraguard"}}},
		"baseline only":     {Kind: KindPerf, Perf: &PerfRequest{Schemes: []string{"Baseline"}}},
		"dup scheme":        {Kind: KindPerf, Perf: &PerfRequest{Schemes: []string{"sgx", "SGX-style"}}},
		"unknown workload":  {Kind: KindPerf, Perf: &PerfRequest{Workloads: []string{"doom"}}},
		"dup workload":      {Kind: KindPerf, Perf: &PerfRequest{Workloads: []string{"leela", "leela"}}},
		"budget cap":        {Kind: KindPerf, Perf: &PerfRequest{InstrPerCore: perfBudgetCap + 1}},
		"negative budget":   {Kind: KindPerf, Perf: &PerfRequest{WarmupInstr: -1}},
		"negative mac":      {Kind: KindPerf, Perf: &PerfRequest{MACLatencyCPU: -8}},
		"negative rh":       {Kind: KindPerf, Perf: &PerfRequest{RHThreshold: -1}},
		"bad mitigation":    {Kind: KindPerf, Perf: &PerfRequest{Mitigation: "prayer"}},
		"unknown evaluator": {Kind: KindRel, Rel: &RelRequest{Evaluators: []string{"raid5"}}},
		"dup evaluator":     {Kind: KindRel, Rel: &RelRequest{Evaluators: []string{"secded", "SECDED"}}},
		"modules cap":       {Kind: KindRel, Rel: &RelRequest{Modules: relModulesCap + 1}},
		"negative years":    {Kind: KindRel, Rel: &RelRequest{Years: -1}},
		"sub-half-year":     {Kind: KindRel, Rel: &RelRequest{Years: 0.3}},
		"years cap":         {Kind: KindRel, Rel: &RelRequest{Years: relYearsCap + 1}},
		"negative fit":      {Kind: KindRel, Rel: &RelRequest{FITScale: -1}},
		"negative scrub":    {Kind: KindRel, Rel: &RelRequest{ScrubIntervalHours: -24}},
	}
	for name, req := range cases {
		if err := req.Normalize(); err == nil {
			t.Errorf("%s: Normalize accepted %+v", name, req)
		}
	}
}

func TestParseRequestStrict(t *testing.T) {
	t.Parallel()
	if _, err := ParseRequest(strings.NewReader(`{"kind":"perf","perf":{"sheme":["SafeGuard"]}}`)); err == nil {
		t.Fatal("unknown field accepted — typos would alias cache keys")
	}
	if _, err := ParseRequest(strings.NewReader(`{"kind":`)); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	req, err := ParseRequest(strings.NewReader(`{"kind":"rel","rel":{"evaluators":["chipkill"],"modules":1000}}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Rel.Evaluators[0] != "Chipkill" {
		t.Fatalf("parse did not canonicalize: %v", req.Rel.Evaluators)
	}
}

// yearsOutOfRange are served request bodies whose deployment horizon
// faultsim cannot tally: under half a year leaves no year bucket, and an
// astronomic horizon once sized a slice past the heap.
var yearsOutOfRange = []string{
	`{"kind":"rel","rel":{"years":0.3}}`,
	`{"kind":"rel","rel":{"years":1e300}}`,
}

func TestParseRequestRejectsYearsOutOfRange(t *testing.T) {
	t.Parallel()
	for _, body := range yearsOutOfRange {
		if _, err := ParseRequest(strings.NewReader(body)); err == nil {
			t.Errorf("%s accepted", body)
		}
	}
	for _, body := range []string{`{"kind":"rel","rel":{"years":0.5}}`, `{"kind":"rel","rel":{"years":100}}`} {
		if _, err := ParseRequest(strings.NewReader(body)); err != nil {
			t.Errorf("%s rejected: %v", body, err)
		}
	}
}

func TestValidHash(t *testing.T) {
	t.Parallel()
	h, err := tinyPerf().Hash()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "abc", strings.ToUpper(h), h + "0", h[:len(h)-1] + "z", "../../etc/passwd"} {
		if ValidHash(bad) {
			t.Errorf("ValidHash(%q) = true", bad)
		}
	}
}

func TestRequestString(t *testing.T) {
	t.Parallel()
	p, l := tinyPerf(), tinyRel()
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := l.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s := p.String(); !strings.Contains(s, "SafeGuard") || !strings.Contains(s, "leela") {
		t.Fatalf("perf String = %q", s)
	}
	if s := l.String(); !strings.Contains(s, "SECDED") {
		t.Fatalf("rel String = %q", s)
	}
}
