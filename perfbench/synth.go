package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"safeguard/internal/jobs"
	"safeguard/internal/payload"
	"safeguard/internal/resultcache"
	"safeguard/internal/synth"
)

// attack-synth: synth.Search sweeps against every mitigation of the
// committed nightly configuration (testdata/synth_baseline.json). One
// nightly search takes ~14 s on the reference machine, almost all of it
// the BlockHammer cell, so a measured unit is that configuration scaled
// down (same bank, engine and mitigations; smaller activation budget,
// RH-threshold and search), with a fresh search seed per unit. The
// traced run also replays the full nightly configuration and requires
// the committed matrix byte for byte.

const (
	synthBudget      = 200
	synthThreshold   = 40
	synthGenerations = 3
	synthPopulation  = 6
)

const nightlyPath = "testdata/synth_baseline.json"

// synthInputs is how many units' searches set-up generates as served
// synth requests with their content hashes; later units are generated
// on demand.
const synthInputs = 256

// synthInput is one unit's search as a served synth request.
type synthInput struct {
	req  *resultcache.Request
	hash string
}

type attackSynth struct {
	e           *env
	nightly     []byte
	nightlyCfg  synth.Config
	mitigations []string
	inputs      []synthInput

	cache *resultcache.Cache
	run   jobs.Runner // the production runner over cache

	mu    sync.Mutex
	evals map[int]int
	hits  []unitResult
	acts  float64 // payload library activations (traced extras)
	vrrs  float64 // mitigation refreshes the library runs triggered
	split string  // the nightly search's per-layer profile split (traced)
}

func newAttackSynth(e *env) (runner, error) {
	b, err := os.ReadFile(filepath.Join(e.root, nightlyPath))
	if err != nil {
		return nil, err
	}
	m, err := synth.ParseMatrix(b)
	if err != nil {
		return nil, err
	}
	cache, err := resultcache.New(resultcache.Options{})
	if err != nil {
		return nil, err
	}
	s := &attackSynth{e: e, nightly: b, cache: cache, run: jobs.CachedRunner(cache, nil), evals: make(map[int]int)}
	if len(m.Cells) == 0 {
		return nil, fmt.Errorf("%s has no cells", nightlyPath)
	}
	// Cells are mitigation-major: the first mitigation's cells list the
	// thresholds, the first threshold's cells list the mitigations.
	var thresholds []int
	for _, c := range m.Cells {
		if c.Mitigation == m.Cells[0].Mitigation {
			thresholds = append(thresholds, c.Threshold)
		}
		if c.Threshold == m.Cells[0].Threshold {
			s.mitigations = append(s.mitigations, c.Mitigation)
		}
	}
	s.nightlyCfg = synth.Config{
		Bank: m.Bank, Mitigations: s.mitigations, Thresholds: thresholds, Seed: m.Seed,
		Budget: m.Budget, Generations: m.Generations, Population: m.Population,
		Engine: m.Engine, Parallelism: e.workers,
	}
	for i := 0; i < synthInputs; i++ {
		in, err := s.input(i)
		if err != nil {
			return nil, err
		}
		s.inputs = append(s.inputs, in)
	}
	return s, nil
}

func (s *attackSynth) clients() int { return s.e.workers }
func (s *attackSynth) batch() int   { return 1 }
func (s *attackSynth) close()       {}

// config is unit i's scaled-down search, one cell at a time.
func (s *attackSynth) config(i int) synth.Config {
	c := s.nightlyCfg
	c.Thresholds = []int{synthThreshold}
	c.Budget, c.Generations, c.Population = synthBudget, synthGenerations, synthPopulation
	c.Seed = s.e.seed*1000 + uint64(i) + 1
	c.Parallelism = 1
	return c
}

func (s *attackSynth) unit(i int, tr *tracer, parent int) unitResult {
	cfg := s.config(i)
	t0 := time.Now()
	id := tr.begin("synth.search", parent, i)
	m, err := synth.Search(s.e.ctx, cfg)
	tr.end(id)
	u := unitResult{ms: msSince(t0)}
	if err != nil {
		u.err = err
		return u
	}
	enc, err := m.EncodeJSON()
	if err == nil {
		err = checkMatrix(m, enc, cfg)
	}
	if err != nil {
		u.err = err
		return u
	}
	evals := 0
	for _, c := range m.Cells {
		evals += c.Evals
	}
	u.work = float64(evals)
	u.digest = digestBytes(enc)
	h := s.resubmit(i, enc)
	s.mu.Lock()
	s.evals[i] = evals
	s.hits = append(s.hits, h)
	s.mu.Unlock()
	return u
}

// checkMatrix applies the seed-independent checks: canonical bytes that
// re-parse to themselves, one cell per mitigation in configuration
// order, consistent defeat bookkeeping, and an unmitigated bank that
// falls.
func checkMatrix(m *synth.Matrix, enc []byte, cfg synth.Config) error {
	again, err := synth.ParseMatrix(enc)
	if err != nil {
		return err
	}
	if re, err := again.EncodeJSON(); err != nil || !bytes.Equal(re, enc) {
		return errors.New("matrix does not re-encode to its own bytes")
	}
	if len(m.Cells) != len(cfg.Mitigations) {
		return fmt.Errorf("%d cells for %d mitigations", len(m.Cells), len(cfg.Mitigations))
	}
	for k, c := range m.Cells {
		switch {
		case c.Mitigation != cfg.Mitigations[k] || c.Threshold != cfg.Thresholds[0]:
			return fmt.Errorf("cell %d is %s/%d, want %s/%d", k, c.Mitigation, c.Threshold, cfg.Mitigations[k], cfg.Thresholds[0])
		case c.Defeated != (c.Flips > 0), c.Evals < 1, c.Activations > cfg.Budget:
			return fmt.Errorf("cell %s: inconsistent outcome %+v", c.Mitigation, c)
		case c.Defeated && (c.MinBudget < 1 || c.MinBudget > c.Activations):
			return fmt.Errorf("cell %s: min budget %d outside [1, %d]", c.Mitigation, c.MinBudget, c.Activations)
		case c.Mitigation == "none" && !c.Defeated:
			return errors.New("the unmitigated bank was not defeated")
		}
	}
	return nil
}

// input is unit i's search as a served synth request, with the content
// hash its artifact is stored under.
func (s *attackSynth) input(i int) (synthInput, error) {
	if i < len(s.inputs) {
		return s.inputs[i], nil
	}
	c := s.config(i)
	req := &resultcache.Request{Kind: resultcache.KindSynth, Synth: &resultcache.SynthRequest{
		Bank: c.Bank, Mitigations: c.Mitigations, Thresholds: c.Thresholds, Seed: c.Seed,
		Budget: c.Budget, Generations: c.Generations, Population: c.Population, Engine: c.Engine,
	}}
	hash, err := req.Hash()
	return synthInput{req: req, hash: hash}, err
}

// resubmit stores the search's matrix as the artifact of its served
// synth request, then times the production runner answering the same
// request: the cached unit, which must return the search's bytes.
func (s *attackSynth) resubmit(i int, enc []byte) unitResult {
	u := unitResult{index: i}
	in, err := s.input(i)
	var art *resultcache.Artifact
	if err == nil {
		art, err = resultcache.NewArtifact(in.req, enc)
	}
	if err == nil && art.Hash != in.hash {
		err = fmt.Errorf("artifact hash %s, want %s", art.Hash, in.hash)
	}
	if err == nil {
		err = s.cache.Put(art)
	}
	if err != nil {
		u.err = err
		return u
	}
	t0 := time.Now()
	got, err := s.run(s.e.ctx, in.req)
	u.ms = msSince(t0)
	switch {
	case err != nil:
		u.err = err
	case !bytes.Equal(got, enc):
		u.err = errors.New("cached synth result differs from the search's matrix")
	}
	return u
}

func (s *attackSynth) cached() []unitResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]unitResult(nil), s.hits...)
}

// extras runs every payload library program against every mitigation at
// the measured budget, then the full nightly search, which must
// reproduce the committed matrix byte for byte.
func (s *attackSynth) extras(tr *tracer) []unitResult {
	bank := s.nightlyCfg.Bank
	bank.Threshold = synthThreshold
	victim := bank.Rows / 2
	progs := []*payload.Program{
		payload.SingleSided(victim+1, synthBudget),
		payload.DoubleSided(victim, synthBudget),
		payload.ManySided(victim, 6, victim+300, synthBudget),
		payload.HalfDouble(victim, 4, synthBudget),
	}
	var out []unitResult
	for _, mit := range s.mitigations {
		for _, p := range progs {
			id := tr.begin("payload.run", -1, -1)
			t0 := time.Now()
			res, err := payload.Run(s.e.ctx, payload.RunConfig{Bank: bank, Mitigation: mit, Seed: s.e.seed, MaxActivations: synthBudget}, p)
			u := unitResult{index: -1, ms: msSince(t0), err: err}
			tr.end(id)
			if err == nil && (res.Activations < 1 || res.Activations > synthBudget) {
				u.err = fmt.Errorf("payload %s/%s ran %d activations", p.Name, mit, res.Activations)
			}
			s.mu.Lock()
			s.acts += float64(res.Activations)
			s.vrrs += float64(res.MitigationRefreshes)
			s.mu.Unlock()
			out = append(out, u)
		}
	}

	// The nightly search gets a profile of its own, so its per-layer
	// split can be set beside the scaled-down units'.
	var prof bytes.Buffer
	profiling := pprof.StartCPUProfile(&prof) == nil
	id := tr.begin("synth.nightly", -1, -1)
	t0 := time.Now()
	m, err := synth.Search(s.e.ctx, s.nightlyCfg)
	u := unitResult{index: -1, ms: msSince(t0), err: err}
	tr.end(id)
	if profiling {
		pprof.StopCPUProfile()
		s.split = s.nightlySplit(prof.Bytes())
	}
	if err == nil {
		enc, err := m.EncodeJSON()
		switch {
		case err != nil:
			u.err = err
		case !bytes.Equal(enc, s.nightly):
			u.err = fmt.Errorf("nightly search differs from %s", nightlyPath)
		}
	}
	return append(out, u)
}

// nightlySplit attributes the nightly search's profile by layer.
func (s *attackSynth) nightlySplit(prof []byte) string {
	base, err := outBase(s.e.root, "attack-synth-nightly", s.e.seed, 1)
	if err != nil {
		return "nightly search profile: " + err.Error()
	}
	frac, _, err := profileFractions(base+".pprof", prof)
	if err != nil {
		return "nightly search profile: " + err.Error()
	}
	return splitNote("nightly search", frac)
}

func (s *attackSynth) notes() []string {
	if s.split == "" {
		return nil
	}
	return []string{s.split}
}

func (s *attackSynth) layers(spans []span, units []unitResult, m map[string]float64) {
	search := durationsMS(spans, "synth.search")
	s.mu.Lock()
	defer s.mu.Unlock()
	var evals float64
	for _, u := range units {
		evals += float64(s.evals[u.index])
	}
	pay := durationsMS(spans, "payload.run")
	m["synth.search_ms"] = median(search)
	m["synth.evals"] = evals
	m["synth.ms_per_eval"] = ratio(sum(search), evals)
	m["synth.nightly_ms"] = sum(durationsMS(spans, "synth.nightly"))
	m["payload.run_ms"] = median(pay)
	m["payload.acts_per_ms"] = ratio(s.acts, sum(pay))
	m["memctrl.vrrs"] += s.vrrs // on top of any from the workload it rides with
}
