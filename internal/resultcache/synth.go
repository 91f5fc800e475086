// Attack synthesis as a cached service kind. A synth request names a
// bank geometry, a mitigation set, an RH-threshold sweep, and the
// searcher's budget knobs; its artifact is the canonical
// mitigation-vs-synthesized-attack matrix (synth-matrix/1). The search
// is deterministic per (seed, cell), so the artifact bytes are
// identical on every worker — the same content-hash contract as the
// perf and rel kinds, which is what lets the fleet serve synthesis jobs
// with no new machinery. Parallelism is deliberately not a request
// field: it cannot change the matrix, so it must not change the hash.
package resultcache

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"safeguard/internal/memctrl"
	"safeguard/internal/payload"
	"safeguard/internal/rowhammer"
	"safeguard/internal/synth"
	"safeguard/internal/telemetry"
)

// KindSynth is the attack-synthesis request kind.
const KindSynth = "synth"

// Synthesis caps: one submission may not monopolize the service.
const (
	synthBudgetCap      = 100_000
	synthGenerationsCap = 64
	synthPopulationCap  = 256
	synthCellsCap       = 64
)

// SynthRequest parameterizes one synthesis sweep. The fields mirror
// synth.Config minus Parallelism (worker counts never enter the hash).
type SynthRequest struct {
	// Bank is the disturbance-model geometry; zero Rows takes the
	// paper's default device.
	Bank rowhammer.Config `json:"bank"`
	// Mitigations are memctrl registry names; empty means the whole
	// registry. Canonicalized to lowercase registry spellings.
	Mitigations []string `json:"mitigations"`
	// Thresholds are the RH-threshold sweep values; empty means the
	// bank's own threshold.
	Thresholds []int  `json:"thresholds"`
	Seed       uint64 `json:"seed"`
	// Budget / Generations / Population size the search (synth.Config
	// defaults when zero).
	Budget      int `json:"budget"`
	Generations int `json:"generations"`
	Population  int `json:"population"`
	// MaxCycles bounds each evaluation (0 = the interpreter default).
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// Engine must be "event" (the "" default, materialized by normalize);
	// any other value is rejected. It stays in the request so existing
	// request hashes hold.
	Engine string `json:"engine,omitempty"`
}

// SynthWire is the stored result of a synth request: the canonical
// synth-matrix/1 artifact itself. Keeping the artifact bytes identical
// to synth.Matrix.EncodeJSON means the sgattack -synth -json output,
// the sgserve artifact, and the committed nightly baseline are one
// format, parsed by one reader.
type SynthWire = synth.Matrix

func (s *SynthRequest) normalize() error {
	cfg := s.config()
	cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	// Materialize the defaults back into the request so the canonical
	// JSON carries them, then canonicalize and dedup the names.
	s.Bank = cfg.Bank
	s.Thresholds = cfg.Thresholds
	s.Budget = cfg.Budget
	s.Generations = cfg.Generations
	s.Population = cfg.Population
	s.Engine = cfg.Engine
	canon := make([]string, 0, len(cfg.Mitigations))
	seen := make(map[string]bool)
	for _, name := range cfg.Mitigations {
		name = strings.ToLower(strings.TrimSpace(name))
		if name == "" {
			name = "none"
		}
		if seen[name] {
			return fmt.Errorf("resultcache: duplicate mitigation %q", name)
		}
		seen[name] = true
		canon = append(canon, name)
	}
	s.Mitigations = canon
	if s.MaxCycles < 0 {
		return fmt.Errorf("resultcache: negative cycle bound")
	}
	if s.Budget > synthBudgetCap {
		return fmt.Errorf("resultcache: synthesis budget exceeds the per-request cap of %d", synthBudgetCap)
	}
	if s.Generations > synthGenerationsCap || s.Population > synthPopulationCap {
		return fmt.Errorf("resultcache: search size exceeds the per-request cap of %d generations x %d population",
			synthGenerationsCap, synthPopulationCap)
	}
	if cells := len(s.Mitigations) * len(s.Thresholds); cells > synthCellsCap {
		return fmt.Errorf("resultcache: %d synthesis cells exceed the per-request cap of %d", cells, synthCellsCap)
	}
	return nil
}

// config converts the request to the searcher's configuration.
func (s *SynthRequest) config() *synth.Config {
	return &synth.Config{
		Bank:        s.Bank,
		Mitigations: append([]string(nil), s.Mitigations...),
		Thresholds:  append([]int(nil), s.Thresholds...),
		Seed:        s.Seed,
		Budget:      s.Budget,
		Generations: s.Generations,
		Population:  s.Population,
		MaxCycles:   s.MaxCycles,
		Engine:      s.Engine,
	}
}

func (s *SynthRequest) execute(ctx context.Context, reg *telemetry.Registry) (json.RawMessage, error) {
	m, err := synth.Search(ctx, *s.config())
	if err != nil {
		return nil, err
	}
	telemetry.ProgressFromContext(ctx).Set(telemetry.Progress{Phase: "encode"})
	return m.EncodeJSON()
}

// validateSynthResult checks artifact invariants beyond shape: the
// matrix must carry the right schema and registry-known mitigations, so
// a stale or corrupted artifact fails at the reader.
func validateSynthResult(w *SynthWire) error {
	if w.Schema != synth.MatrixSchema {
		return fmt.Errorf("resultcache: synth matrix schema %q, want %q", w.Schema, synth.MatrixSchema)
	}
	for _, c := range w.Cells {
		if _, err := memctrl.NewMitigationPlugin(c.Mitigation, 1, 0); err != nil {
			return fmt.Errorf("resultcache: synth matrix cell: %w", err)
		}
		if c.Defeated && (c.MinBudget < 1 || c.Flips < 1) {
			return fmt.Errorf("resultcache: synth matrix cell %s/th=%d defeated without a budget or flips",
				c.Mitigation, c.Threshold)
		}
		if _, err := payload.Parse(c.Payload); err != nil {
			return fmt.Errorf("resultcache: synth matrix cell %s/th=%d payload: %w", c.Mitigation, c.Threshold, err)
		}
	}
	return nil
}
