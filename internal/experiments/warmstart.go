package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"safeguard/internal/sim"
)

// Warm-start pool: the warm-up phase of a perf run depends only on the
// cell (workload, scheme, seed, warm budget, machine knobs) — never on
// the measured budget — so its end state can be minted once, keyed, and
// restored by every later run of the same cell. Restoring is exact (the
// sgsnap/1 restore-equals-uninterrupted contract), so pooled runs are
// bit-identical to cold ones while skipping every warm-up cycle.

// WarmKey identifies the simulator state at the warm-up capture point:
// every sim.Config axis that can influence a cycle before measurement
// starts. InstrPerCore is deliberately absent — the measured budget is
// the axis the pool amortizes across. Telemetry/Trace presence is
// included because it changes the snapshot's contents.
type WarmKey struct {
	Workload       string `json:"workload"`
	Scheme         string `json:"scheme"`
	Seed           uint64 `json:"seed"`
	WarmupInstr    int64  `json:"warmup_instr"`
	Cores          int    `json:"cores"`
	L1Bytes        int    `json:"l1_bytes"`
	L1Ways         int    `json:"l1_ways"`
	L1Latency      int64  `json:"l1_latency"`
	LLCBytes       int    `json:"llc_bytes"`
	LLCWays        int    `json:"llc_ways"`
	LLCLatency     int64  `json:"llc_latency"`
	PrefetchDegree int    `json:"prefetch_degree"`
	MACLatencyCPU  int64  `json:"mac_latency_cpu"`
	ECCDecodeCPU   int64  `json:"ecc_decode_cpu,omitempty"`
	FCFSScheduler  bool   `json:"fcfs,omitempty"`
	Mitigation     string `json:"mitigation,omitempty"`
	RHThreshold    int    `json:"rh_threshold,omitempty"`
	Attrib         bool   `json:"attrib,omitempty"`
	Telemetry      bool   `json:"telemetry,omitempty"`
}

// WarmKeyFor derives the pool key of a run configuration.
func WarmKeyFor(sc sim.Config) WarmKey {
	return WarmKey{
		Workload:       sc.Workload.Name,
		Scheme:         sc.Scheme.String(),
		Seed:           sc.Seed,
		WarmupInstr:    sc.WarmupInstr,
		Cores:          sc.Cores,
		L1Bytes:        sc.L1Bytes,
		L1Ways:         sc.L1Ways,
		L1Latency:      sc.L1Latency,
		LLCBytes:       sc.LLCBytes,
		LLCWays:        sc.LLCWays,
		LLCLatency:     sc.LLCLatency,
		PrefetchDegree: sc.PrefetchDegree,
		MACLatencyCPU:  sc.MACLatencyCPU,
		ECCDecodeCPU:   sc.ECCDecodeCPU,
		FCFSScheduler:  sc.FCFSScheduler,
		Mitigation:     sc.Mitigation,
		RHThreshold:    sc.RHThreshold,
		Attrib:         sc.Attrib,
		Telemetry:      sc.Telemetry != nil,
	}
}

// WarmStore is the pool's storage: content-addressed snapshot bytes per
// key. Implementations must be safe for concurrent use (the perf pool's
// workers share one store); resultcache.WarmPool is the standard one.
type WarmStore interface {
	GetWarm(key WarmKey) (snapshot []byte, ok bool, err error)
	PutWarm(key WarmKey, snapshot []byte) error
}

// errWarmMinted stops a minting run right after its warm capture.
var errWarmMinted = errors.New("experiments: warm snapshot minted")

// MintWarmSnapshot runs cfg only to its warm-up capture point (every
// core past WarmupInstr) and returns the sgsnap/1 bytes captured there.
// The run is aborted immediately after the capture, so minting costs the
// warm phase only.
func MintWarmSnapshot(ctx context.Context, sc sim.Config) ([]byte, error) {
	var data []byte
	sc.SnapshotWarm = true
	sc.SnapshotFn = func(b []byte) error {
		data = append([]byte(nil), b...)
		return errWarmMinted
	}
	_, err := sim.NewSystem(sc).RunContext(ctx)
	switch {
	case errors.Is(err, errWarmMinted):
		return data, nil
	case err != nil:
		return nil, err
	}
	return nil, fmt.Errorf("experiments: run finished before the warm capture fired")
}

// WarmRun executes one perf run through the warm-start pool: a pool hit
// restores the warm snapshot and simulates only the measured phase; a
// miss runs cold and deposits its warm capture for the next run of the
// cell. Results are bit-identical either way, so every pool or restore
// failure falls back to a cold run rather than failing the sweep. With a
// nil pool, or a tracer set (a shared tracer cannot be restored per run),
// it is a plain cold run.
func WarmRun(ctx context.Context, sc sim.Config, pool WarmStore) (sim.Result, error) {
	if pool == nil || sc.Trace != nil {
		return sim.NewSystem(sc).RunContext(ctx)
	}
	key := WarmKeyFor(sc)
	if data, ok, err := pool.GetWarm(key); err == nil && ok {
		sys := sim.NewSystem(sc)
		if err := sys.RestoreSnapshot(data); err == nil {
			return sys.RunContext(ctx)
		}
	}
	mint := sc
	mint.SnapshotWarm = true
	mint.SnapshotFn = func(b []byte) error {
		// Best-effort deposit: a full store must not fail the run.
		_ = pool.PutWarm(key, b)
		return nil
	}
	return sim.NewSystem(mint).RunContext(ctx)
}

// MemWarmStore is an in-memory WarmStore for tests and single-process
// sweeps.
type MemWarmStore struct {
	mu   sync.Mutex
	m    map[WarmKey][]byte
	Hits int
	Puts int
}

// NewMemWarmStore builds an empty in-memory pool.
func NewMemWarmStore() *MemWarmStore {
	return &MemWarmStore{m: make(map[WarmKey][]byte)}
}

// GetWarm implements WarmStore.
func (s *MemWarmStore) GetWarm(key WarmKey) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.m[key]
	if ok {
		s.Hits++
	}
	return data, ok, nil
}

// PutWarm implements WarmStore.
func (s *MemWarmStore) PutWarm(key WarmKey, snapshot []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), snapshot...)
	s.Puts++
	return nil
}
