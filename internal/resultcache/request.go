// Package resultcache gives every simulation request a deterministic
// identity and stores the resulting artifacts behind it. A request is
// canonicalized (defaults materialized, names resolved through the same
// registries the CLIs use, non-semantic knobs excluded), serialized to a
// fixed-field-order JSON form, and hashed; because every worker pool in
// this repository is block-deterministic, two requests with equal hashes
// produce byte-identical result JSON — which is what makes the content
// hash a sound cache key. The cache itself is two-tier: an in-memory LRU
// in front of an optional on-disk store of versioned, invariant-checked
// JSON artifacts (artifact.go), in the mold of the sgprof/1 report
// readers.
package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"safeguard/internal/faultsim"
	"safeguard/internal/memctrl"
	"safeguard/internal/sim"
	"safeguard/internal/workload"
)

// Schema versions the request/artifact wire format. Bumping it shifts
// the entire hash namespace, so artifacts from incompatible builds can
// never alias.
const Schema = "sgserve/1"

// Request kinds.
const (
	KindPerf = "perf" // performance sweep via the experiments pool
	KindRel  = "rel"  // Monte-Carlo lifetime study via the faultsim pool
	// KindWarm is declared in warm.go: a warm-start snapshot mint.
	// KindSynth is declared in synth.go: an attack-synthesis sweep.
)

// Request is one simulation job as submitted to the service. Exactly one
// kind-specific payload must be present, matching Kind.
type Request struct {
	Kind  string        `json:"kind"`
	Perf  *PerfRequest  `json:"perf,omitempty"`
	Rel   *RelRequest   `json:"rel,omitempty"`
	Warm  *WarmRequest  `json:"warm,omitempty"`
	Synth *SynthRequest `json:"synth,omitempty"`
}

// PerfRequest parameterizes a performance sweep (the sim.Config axes the
// paper's Figures 7-13 sweep). Fields left zero take the same defaults
// the CLI presets use; Baseline is always simulated implicitly as the
// slowdown denominator and is stripped from Schemes. Worker counts and
// telemetry destinations are deliberately absent: they do not change the
// result bytes, so they must not change the hash.
type PerfRequest struct {
	// Schemes are protection schemes by registry name (sim.ParseScheme);
	// canonicalized to sim.Scheme.String() forms. Default: SafeGuard.
	Schemes []string `json:"schemes"`
	// Workloads default to the full SPEC2017-rate list.
	Workloads []string `json:"workloads"`
	// Seeds are averaged; default {1, 2}.
	Seeds []uint64 `json:"seeds"`
	// InstrPerCore / WarmupInstr default to the QuickPerf budgets.
	InstrPerCore int64 `json:"instr_per_core"`
	WarmupInstr  int64 `json:"warmup_instr"`
	// MACLatencyCPU defaults to Table II's 8 cycles.
	MACLatencyCPU int64 `json:"mac_latency_cpu"`
	// Mitigation optionally attaches an in-controller Row-Hammer
	// mitigation by memctrl registry name to every run.
	Mitigation string `json:"mitigation,omitempty"`
	// RHThreshold sizes the mitigation (0 = Table I default).
	RHThreshold int `json:"rh_threshold,omitempty"`
}

// RelRequest parameterizes a reliability study (Figures 6 and 10).
type RelRequest struct {
	// Evaluators are protection schemes by faultsim registry name;
	// canonicalized to Evaluator.Name() forms. Default: the Figure 6
	// SECDED pair.
	Evaluators []string `json:"evaluators"`
	// Modules defaults to the QuickReliability population.
	Modules int `json:"modules"`
	// Years defaults to the paper's 7-year deployment.
	Years float64 `json:"years"`
	// FITScale defaults to 1 (Figure 10's stress study uses 10).
	FITScale float64 `json:"fit_scale"`
	// Seed defaults to 42, the QuickReliability seed.
	Seed uint64 `json:"seed"`
	// ScrubIntervalHours / RetireIntervalHours enable the lifetime-sim
	// response policies; zero disables them (the paper's configuration).
	ScrubIntervalHours  float64 `json:"scrub_interval_hours,omitempty"`
	RetireIntervalHours float64 `json:"retire_interval_hours,omitempty"`
	// CIHalfWidth, when positive, switches the study to adaptive
	// sampling (faultsim.Config.CIHalfWidth): Modules becomes a
	// population cap and blocks run until the Wilson 95% interval on the
	// failure probability is within ±CIHalfWidth. Omitted from the
	// canonical form when zero, so pre-existing request hashes are
	// untouched.
	CIHalfWidth float64 `json:"ci_half_width,omitempty"`
}

// perfBudgetCap bounds per-request instruction budgets so one submission
// cannot monopolize the service; paper-scale sweeps stay CLI territory.
const perfBudgetCap = 5_000_000

// relModulesCap bounds the Monte-Carlo population per request.
const relModulesCap = 5_000_000

// relYearsCap bounds the deployment horizon per request, at the limit
// faultsim.Run itself enforces.
const relYearsCap = faultsim.MaxYears

// ParseRequest decodes a request strictly: unknown fields are rejected,
// because a silently ignored field ("sheme") would alias two different
// intents onto one cache key. The returned request is normalized.
func ParseRequest(r io.Reader) (*Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("resultcache: bad request: %w", err)
	}
	if err := req.Normalize(); err != nil {
		return nil, err
	}
	return &req, nil
}

// Normalize validates the request and rewrites it into canonical form:
// defaults are materialized, scheme/workload/evaluator/mitigation names
// are resolved through the registries and replaced by their canonical
// spellings, and budgets are bounds-checked. After Normalize, two
// requests that mean the same run marshal to identical bytes.
func (r *Request) Normalize() error {
	switch r.Kind {
	case KindPerf:
		if r.Rel != nil || r.Warm != nil || r.Synth != nil {
			return fmt.Errorf("resultcache: kind %q must not carry another kind's payload", r.Kind)
		}
		if r.Perf == nil {
			r.Perf = &PerfRequest{}
		}
		return r.Perf.normalize()
	case KindRel:
		if r.Perf != nil || r.Warm != nil || r.Synth != nil {
			return fmt.Errorf("resultcache: kind %q must not carry another kind's payload", r.Kind)
		}
		if r.Rel == nil {
			r.Rel = &RelRequest{}
		}
		return r.Rel.normalize()
	case KindWarm:
		if r.Perf != nil || r.Rel != nil || r.Synth != nil {
			return fmt.Errorf("resultcache: kind %q must not carry another kind's payload", r.Kind)
		}
		if r.Warm == nil {
			return fmt.Errorf("resultcache: warm request requires a warm payload")
		}
		return r.Warm.normalize()
	case KindSynth:
		if r.Perf != nil || r.Rel != nil || r.Warm != nil {
			return fmt.Errorf("resultcache: kind %q must not carry another kind's payload", r.Kind)
		}
		if r.Synth == nil {
			r.Synth = &SynthRequest{}
		}
		return r.Synth.normalize()
	default:
		return fmt.Errorf("resultcache: unknown kind %q (valid: %s, %s, %s, %s)", r.Kind, KindPerf, KindRel, KindWarm, KindSynth)
	}
}

func (p *PerfRequest) normalize() error {
	if len(p.Schemes) == 0 {
		p.Schemes = []string{sim.SafeGuard.String()}
	}
	canon := make([]string, 0, len(p.Schemes))
	seen := make(map[string]bool)
	for _, name := range p.Schemes {
		s, err := sim.ParseScheme(name)
		if err != nil {
			return fmt.Errorf("resultcache: %w", err)
		}
		if s == sim.Baseline {
			// Baseline always runs as the slowdown denominator; listing
			// it must not fork the cache key.
			continue
		}
		if seen[s.String()] {
			return fmt.Errorf("resultcache: duplicate scheme %q", s.String())
		}
		seen[s.String()] = true
		canon = append(canon, s.String())
	}
	if len(canon) == 0 {
		return fmt.Errorf("resultcache: no scheme beyond Baseline requested")
	}
	p.Schemes = canon
	if len(p.Workloads) == 0 {
		p.Workloads = workload.Names()
	}
	wseen := make(map[string]bool)
	for _, name := range p.Workloads {
		if _, err := workload.ByName(name); err != nil {
			return fmt.Errorf("resultcache: %w", err)
		}
		if wseen[name] {
			return fmt.Errorf("resultcache: duplicate workload %q", name)
		}
		wseen[name] = true
	}
	if len(p.Seeds) == 0 {
		p.Seeds = []uint64{1, 2}
	}
	if p.InstrPerCore == 0 {
		p.InstrPerCore = 400_000 // QuickPerf
	}
	if p.WarmupInstr == 0 {
		p.WarmupInstr = 200_000 // QuickPerf
	}
	if p.InstrPerCore < 0 || p.WarmupInstr < 0 {
		return fmt.Errorf("resultcache: negative instruction budget")
	}
	if p.InstrPerCore > perfBudgetCap || p.WarmupInstr > perfBudgetCap {
		return fmt.Errorf("resultcache: instruction budget exceeds the per-request cap of %d", perfBudgetCap)
	}
	if p.MACLatencyCPU == 0 {
		p.MACLatencyCPU = 8 // Table II
	}
	if p.MACLatencyCPU < 0 {
		return fmt.Errorf("resultcache: negative MAC latency")
	}
	if p.RHThreshold < 0 {
		return fmt.Errorf("resultcache: negative RH threshold")
	}
	if err := memctrl.CheckMitigation(p.Mitigation, p.RHThreshold); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	return nil
}

func (l *RelRequest) normalize() error {
	if len(l.Evaluators) == 0 {
		l.Evaluators = []string{"SECDED", "SafeGuard-SECDED"}
	}
	canon := make([]string, 0, len(l.Evaluators))
	seen := make(map[string]bool)
	for _, name := range l.Evaluators {
		e, err := faultsim.EvaluatorByName(name)
		if err != nil {
			return fmt.Errorf("resultcache: %w", err)
		}
		if seen[e.Name()] {
			return fmt.Errorf("resultcache: duplicate evaluator %q", e.Name())
		}
		seen[e.Name()] = true
		canon = append(canon, e.Name())
	}
	l.Evaluators = canon
	if l.Modules == 0 {
		l.Modules = 300_000 // QuickReliability
	}
	if l.Modules < 0 {
		return fmt.Errorf("resultcache: negative module population")
	}
	if l.Modules > relModulesCap {
		return fmt.Errorf("resultcache: module population exceeds the per-request cap of %d", relModulesCap)
	}
	if l.Years == 0 {
		l.Years = 7
	}
	if l.Years < 0.5 || l.Years > relYearsCap {
		return fmt.Errorf("resultcache: deployment years %g outside [0.5, %d]", l.Years, relYearsCap)
	}
	if l.FITScale == 0 {
		l.FITScale = 1
	}
	if l.FITScale < 0 {
		return fmt.Errorf("resultcache: negative FIT scale")
	}
	if l.Seed == 0 {
		l.Seed = 42 // QuickReliability
	}
	if l.ScrubIntervalHours < 0 || l.RetireIntervalHours < 0 {
		return fmt.Errorf("resultcache: negative scrub/retire interval")
	}
	if l.CIHalfWidth < 0 {
		return fmt.Errorf("resultcache: negative CI half-width")
	}
	return nil
}

// CanonicalJSON serializes the normalized request in its canonical form:
// struct field order is fixed by the type, defaults are materialized by
// Normalize, and nothing here reads a clock — equal runs yield equal
// bytes. It normalizes first, so callers cannot hash a raw request by
// accident.
func (r *Request) CanonicalJSON() ([]byte, error) {
	if err := r.Normalize(); err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// HashBytes is the number of hex characters in a request hash.
const HashBytes = sha256.Size * 2

// Hash returns the request's content hash: SHA-256 over the schema
// version and the canonical JSON, hex-encoded. The schema prefix shifts
// the namespace whenever the wire format changes.
func (r *Request) Hash() (string, error) {
	canon, err := r.CanonicalJSON()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(Schema))
	h.Write([]byte{'\n'})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ValidHash reports whether s is shaped like a request hash (lowercase
// hex of the right length) — the endpoint-level guard that keeps
// arbitrary strings out of disk-store filenames.
func ValidHash(s string) bool {
	if len(s) != HashBytes {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// String renders a short human identity for logs.
func (r *Request) String() string {
	switch r.Kind {
	case KindPerf:
		if r.Perf != nil {
			return fmt.Sprintf("perf[%s × %s]", strings.Join(r.Perf.Schemes, ","), strings.Join(r.Perf.Workloads, ","))
		}
	case KindRel:
		if r.Rel != nil {
			return fmt.Sprintf("rel[%s × %d modules]", strings.Join(r.Rel.Evaluators, ","), r.Rel.Modules)
		}
	case KindWarm:
		if r.Warm != nil {
			return fmt.Sprintf("warm[%s × %s seed %d warm %d]", r.Warm.Scheme, r.Warm.Workload, r.Warm.Seed, r.Warm.WarmupInstr)
		}
	case KindSynth:
		if r.Synth != nil {
			return fmt.Sprintf("synth[%s × th %v budget %d]", strings.Join(r.Synth.Mitigations, ","), r.Synth.Thresholds, r.Synth.Budget)
		}
	}
	return "request[" + r.Kind + "]"
}
