// Warm-start snapshots as first-class cached artifacts. A warm request
// names one simulation cell's warm-up phase (experiments.WarmKey); its
// result is the sgsnap/1 snapshot captured when every core crosses the
// warm budget. Minting costs the warm phase once; every later run of the
// cell — at any measured budget — restores the pooled snapshot and
// simulates only the measured phase, bit-identically to a cold run (the
// sim package's restore-equals-uninterrupted contract). WarmPool adapts the content-addressed cache to the
// experiments.WarmStore interface the perf pool consumes.
package resultcache

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"safeguard/internal/experiments"
	"safeguard/internal/memctrl"
	"safeguard/internal/sim"
	"safeguard/internal/snapshot"
	"safeguard/internal/telemetry"
	"safeguard/internal/workload"
)

// KindWarm is the warm-start snapshot request kind.
const KindWarm = "warm"

// WarmRequest parameterizes one warm-up cell. The embedded key's fields
// are the request's canonical JSON form.
type WarmRequest struct {
	experiments.WarmKey
}

func (w *WarmRequest) normalize() error {
	if w.Workload == "" {
		return fmt.Errorf("resultcache: warm request requires a workload")
	}
	if _, err := workload.ByName(w.Workload); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	if w.Scheme == "" {
		w.Scheme = sim.SafeGuard.String()
	}
	s, err := sim.ParseScheme(w.Scheme)
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	w.Scheme = s.String()
	if w.Seed == 0 {
		w.Seed = 1
	}
	if w.WarmupInstr == 0 {
		w.WarmupInstr = 200_000 // QuickPerf
	}
	if w.WarmupInstr < 0 {
		return fmt.Errorf("resultcache: negative warm-up budget")
	}
	if w.WarmupInstr > perfBudgetCap {
		return fmt.Errorf("resultcache: warm-up budget exceeds the per-request cap of %d", perfBudgetCap)
	}
	def := sim.DefaultConfig()
	w.Cores = cmp.Or(w.Cores, def.Cores)
	w.L1Bytes = cmp.Or(w.L1Bytes, def.L1Bytes)
	w.L1Ways = cmp.Or(w.L1Ways, def.L1Ways)
	w.L1Latency = cmp.Or(w.L1Latency, def.L1Latency)
	w.LLCBytes = cmp.Or(w.LLCBytes, def.LLCBytes)
	w.LLCWays = cmp.Or(w.LLCWays, def.LLCWays)
	w.LLCLatency = cmp.Or(w.LLCLatency, def.LLCLatency)
	w.PrefetchDegree = cmp.Or(w.PrefetchDegree, def.PrefetchDegree)
	w.MACLatencyCPU = cmp.Or(w.MACLatencyCPU, def.MACLatencyCPU)
	if w.Cores < 0 || w.L1Bytes < 0 || w.L1Ways < 0 || w.L1Latency < 0 ||
		w.LLCBytes < 0 || w.LLCWays < 0 || w.LLCLatency < 0 ||
		w.PrefetchDegree < 0 || w.MACLatencyCPU < 0 || w.ECCDecodeCPU < 0 {
		return fmt.Errorf("resultcache: negative machine parameter in warm request")
	}
	if w.RHThreshold < 0 {
		return fmt.Errorf("resultcache: negative RH threshold")
	}
	if err := memctrl.CheckMitigation(w.Mitigation, w.RHThreshold); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	return nil
}

// simConfig materializes the cell into a runnable sim.Config (measured
// budget zeroed; the minting run stops at the warm capture anyway).
func (w *WarmRequest) simConfig() (sim.Config, error) {
	p, err := workload.ByName(w.Workload)
	if err != nil {
		return sim.Config{}, err
	}
	s, err := sim.ParseScheme(w.Scheme)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig()
	cfg.Workload = p
	cfg.Scheme = s
	cfg.Seed = w.Seed
	cfg.WarmupInstr = w.WarmupInstr
	cfg.Cores = w.Cores
	cfg.L1Bytes = w.L1Bytes
	cfg.L1Ways = w.L1Ways
	cfg.L1Latency = w.L1Latency
	cfg.LLCBytes = w.LLCBytes
	cfg.LLCWays = w.LLCWays
	cfg.LLCLatency = w.LLCLatency
	cfg.PrefetchDegree = w.PrefetchDegree
	cfg.MACLatencyCPU = w.MACLatencyCPU
	cfg.ECCDecodeCPU = w.ECCDecodeCPU
	cfg.FCFSScheduler = w.FCFSScheduler
	cfg.Mitigation = w.Mitigation
	cfg.RHThreshold = w.RHThreshold
	cfg.Attrib = w.Attrib
	return cfg, nil
}

// WarmWire is the stored result of a warm request. Snapshot is the raw
// sgsnap/1 document (base64 in JSON); Cycle mirrors the envelope's cycle
// meta for display without decoding.
type WarmWire struct {
	Cycle    int64  `json:"cycle"`
	Snapshot []byte `json:"snapshot"`
}

func (w *WarmRequest) execute(ctx context.Context, reg *telemetry.Registry) (json.RawMessage, error) {
	cfg, err := w.simConfig()
	if err != nil {
		return nil, err
	}
	if w.Telemetry {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	data, err := experiments.MintWarmSnapshot(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if w.Telemetry && reg != nil {
		reg.Merge(cfg.Telemetry)
	}
	return json.Marshal(warmWireFrom(data))
}

func warmWireFrom(data []byte) WarmWire {
	wire := WarmWire{Snapshot: data}
	if h, err := snapshot.Peek(data); err == nil {
		if c, err := strconv.ParseInt(h.Meta["cycle"], 10, 64); err == nil {
			wire.Cycle = c
		}
	}
	return wire
}

// validateWarmResult rejects wires whose snapshot is not a well-formed
// sgsnap/1 sim-state document, so a corrupt pool entry dies at the
// reader instead of at a restore.
func validateWarmResult(wire *WarmWire) error {
	h, err := snapshot.Peek(wire.Snapshot)
	if err != nil {
		return fmt.Errorf("resultcache: warm result: %w", err)
	}
	if h.Kind != sim.SnapshotKind {
		return fmt.Errorf("resultcache: warm result holds a %q snapshot, want %q", h.Kind, sim.SnapshotKind)
	}
	return nil
}

// WarmPool adapts a Cache to experiments.WarmStore: warm snapshots are
// stored as ordinary artifacts under their request's content hash, so
// they share the disk store, HTTP endpoints, and eviction policy with
// every other cached result.
type WarmPool struct {
	cache *Cache
}

// NewWarmPool wraps a cache as a warm-start pool.
func NewWarmPool(c *Cache) *WarmPool { return &WarmPool{cache: c} }

func warmRequestFor(key experiments.WarmKey) *Request {
	return &Request{Kind: KindWarm, Warm: &WarmRequest{WarmKey: key}}
}

// GetWarm implements experiments.WarmStore.
func (p *WarmPool) GetWarm(key experiments.WarmKey) ([]byte, bool, error) {
	hash, err := warmRequestFor(key).Hash()
	if err != nil {
		return nil, false, err
	}
	a, ok, err := p.cache.Get(hash)
	if err != nil || !ok {
		return nil, false, err
	}
	var wire WarmWire
	if err := json.Unmarshal(a.Result, &wire); err != nil {
		return nil, false, fmt.Errorf("resultcache: warm artifact result: %w", err)
	}
	return wire.Snapshot, true, nil
}

// DepositOnly returns a view of the pool whose lookups always miss:
// runs refresh the store without trusting prior contents — the CLI's
// -snapshot-without--resume contract.
func (p *WarmPool) DepositOnly() experiments.WarmStore { return depositOnly{p} }

type depositOnly struct{ p *WarmPool }

func (d depositOnly) GetWarm(experiments.WarmKey) ([]byte, bool, error) { return nil, false, nil }
func (d depositOnly) PutWarm(key experiments.WarmKey, data []byte) error {
	return d.p.PutWarm(key, data)
}

// PutWarm implements experiments.WarmStore.
func (p *WarmPool) PutWarm(key experiments.WarmKey, data []byte) error {
	raw, err := json.Marshal(warmWireFrom(data))
	if err != nil {
		return err
	}
	a, err := NewArtifact(warmRequestFor(key), raw)
	if err != nil {
		return err
	}
	return p.cache.Put(a)
}
