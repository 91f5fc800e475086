// Package sim assembles the full performance-simulation system of the
// paper's Table II: four trace-driven out-of-order cores with private L1
// data caches, a shared inclusive 4MB LLC with a stream prefetcher, and one
// DDR4-3200 channel behind a cycle-level FR-FCFS memory controller.
//
// Protection schemes attach here, at the memory-system boundary:
//
//   - Baseline (conventional SECDED or Chipkill): ECC checking is off the
//     critical path; no extra latency or traffic.
//   - SafeGuard: a MAC check (8 CPU cycles by default, Table II) on every
//     memory read's critical path; no extra traffic — the paper's 0.7%.
//   - SGX-style MAC: every memory read also fetches the line's MAC from a
//     separate region (extra read traffic), data usable only after both
//     arrive plus the MAC check; writes update the MAC region too.
//   - Synergy-style MAC: the MAC travels with the data (read side free of
//     extra accesses, MAC latency only), but every memory write issues a
//     second write to update the remote parity.
//
// Every piece of in-flight state — MSHR waiters, scheme join counters,
// merged MAC fetches, queue-overflow backlogs — is plain data keyed by
// tokens rather than captured in closures, so a System can be checkpointed
// at any cycle boundary (SaveState, state.go) and restored bit-identically.
package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"safeguard/internal/attrib"
	"safeguard/internal/cache"
	"safeguard/internal/cpu"
	"safeguard/internal/dram"
	"safeguard/internal/itree"
	"safeguard/internal/memctrl"
	"safeguard/internal/telemetry"
	"safeguard/internal/workload"
)

// Scheme selects the protection organization under evaluation.
type Scheme int

const (
	// Baseline is conventional ECC (SECDED or Chipkill): no MAC latency,
	// no extra traffic.
	Baseline Scheme = iota
	// SafeGuard adds only the MAC-check latency to reads.
	SafeGuard
	// SGXStyle adds a MAC-region read per memory read and a MAC-region
	// write per memory write, plus the MAC latency.
	SGXStyle
	// SynergyStyle adds the MAC latency to reads and a parity write per
	// memory write.
	SynergyStyle
	// SGXFullStyle is SGXStyle plus the metadata the paper's comparison
	// excluded: version-counter and integrity-tree accesses per memory
	// access, filtered through a 32KB on-chip metadata cache
	// (internal/itree.TrafficModel).
	SGXFullStyle
)

func (s Scheme) String() string {
	switch s {
	case Baseline:
		return "Baseline"
	case SafeGuard:
		return "SafeGuard"
	case SGXStyle:
		return "SGX-style"
	case SynergyStyle:
		return "Synergy-style"
	case SGXFullStyle:
		return "SGX-full (counters+tree)"
	default:
		return "unknown"
	}
}

// Schemes lists every scheme in enum order.
func Schemes() []Scheme {
	return []Scheme{Baseline, SafeGuard, SGXStyle, SynergyStyle, SGXFullStyle}
}

// SchemeNames lists the canonical scheme names (Scheme.String values).
func SchemeNames() []string {
	var out []string
	for _, s := range Schemes() {
		out = append(out, s.String())
	}
	return out
}

// ParseScheme resolves a scheme by name. Canonical names round-trip
// exactly through Scheme.String(); matching is otherwise
// case-insensitive, with short aliases for the CLI ("sgx", "synergy",
// "sgx-full"). Unknown names are an error listing the valid set.
func ParseScheme(name string) (Scheme, error) {
	for _, s := range Schemes() {
		if name == s.String() {
			return s, nil
		}
	}
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "baseline":
		return Baseline, nil
	case "safeguard":
		return SafeGuard, nil
	case "sgx", "sgx-style", "sgxstyle":
		return SGXStyle, nil
	case "synergy", "synergy-style", "synergystyle":
		return SynergyStyle, nil
	case "sgx-full", "sgxfull", "sgx-full (counters+tree)":
		return SGXFullStyle, nil
	}
	return Baseline, fmt.Errorf("unknown scheme %q (valid: %s)",
		name, strings.Join(SchemeNames(), ", "))
}

// Config parameterizes one simulation run.
type Config struct {
	Cores          int
	L1Bytes        int
	L1Ways         int
	L1Latency      int64
	LLCBytes       int
	LLCWays        int
	LLCLatency     int64
	PrefetchDegree int
	// MACLatencyCPU is the MAC check latency in CPU cycles (Table II: 8;
	// Figure 13 sweeps to 80).
	MACLatencyCPU int64
	// ECCDecodeCPU puts an ECC decode of this many CPU cycles on every
	// fill's critical path (all schemes). The paper's designs keep decode
	// off the critical path, so the default is 0; the knob exists for
	// attribution ablations (sgprof -decode).
	ECCDecodeCPU int64
	Scheme       Scheme
	// WarmupInstr is the per-core warm-up budget: caches fill and queues
	// reach steady state before measurement starts (the stand-in for the
	// paper's SimPoint fast-forwarding).
	WarmupInstr int64
	// InstrPerCore is the measured per-core instruction budget; every
	// core's IPC is measured over these instructions while all cores keep
	// running (the paper's rate methodology).
	InstrPerCore int64
	Workload     workload.Params
	Seed         uint64
	// MaxCycles aborts runaway simulations.
	MaxCycles int64
	// FCFSScheduler degrades the memory controller from FR-FCFS to
	// strict in-order data service (the scheduler ablation).
	FCFSScheduler bool
	// Mitigation attaches an in-controller Row-Hammer mitigation by
	// registry name (memctrl.MitigationNames); "" or "none" runs without
	// one. Unknown names surface as an error from Run.
	Mitigation string
	// RHThreshold sizes the mitigation; 0 uses the paper's LPDDR4-new
	// threshold (Table I: 4800).
	RHThreshold int
	// Telemetry, when set, receives the run's counters/histograms (memctrl
	// command mix, latencies, queue depths, plugin stats, LLC summary).
	Telemetry *telemetry.Registry
	// Trace, when set, receives cycle-stamped command events from the
	// memory controller.
	Trace *telemetry.Tracer
	// Attrib enables cycle attribution: every core charges each cycle to
	// an attrib.Component, Result.CPI carries the measured-window stack,
	// and (when Telemetry is set) the stack is published as
	// "attrib.cpi.<scheme>.<component>" counters.
	Attrib bool
	// Engine selects the run loop: "event" (also the "" default) skips
	// provably idle spans using the controller's time wheel and the
	// cores' skip states; "cycle" forces the legacy per-cycle loop — the
	// A/B escape hatch. The two engines produce bit-identical results;
	// unknown names surface as an error from Run.
	Engine string

	// SnapshotAt, when positive, captures the complete simulator state at
	// the end of CPU cycle SnapshotAt and hands the encoded sgsnap/1 bytes
	// to SnapshotFn. The capture point is end-of-cycle, which both engines
	// reach with identical state, so a snapshot taken under one engine
	// restores bit-identically under the other.
	SnapshotAt int64
	// SnapshotStop aborts the run (Run returns ErrStopped) right after the
	// SnapshotAt capture — the "interrupted run" half of a
	// restore-equals-uninterrupted proof, and the cheap way to mint a
	// checkpoint without simulating past it.
	SnapshotStop bool
	// SnapshotWarm captures a snapshot at the end of the first cycle at
	// which every core has crossed its warm-up budget — the warm-start
	// pool's capture point.
	SnapshotWarm bool
	// CheckpointEvery, when positive, captures a snapshot every that many
	// cycles (periodic checkpointing for preemptible workers).
	CheckpointEvery int64
	// SnapshotFn receives every captured snapshot; required when
	// SnapshotAt, SnapshotWarm, or CheckpointEvery is set. A returned
	// error aborts the run.
	SnapshotFn func(data []byte) error
}

// ErrStopped is returned by Run when Config.SnapshotStop ends the run at
// its SnapshotAt capture point.
var ErrStopped = errors.New("sim: run stopped at snapshot point")

// EngineNames lists the valid Config.Engine values.
func EngineNames() []string { return []string{"event", "cycle"} }

// ParseEngine validates a Config.Engine value ("" is the event default).
// Unknown names are an error listing the valid set — the cmds call this
// up front so a typo fails with usage instead of mid-sweep.
func ParseEngine(name string) (string, error) {
	switch name {
	case "", "event", "cycle":
		return name, nil
	}
	return "", fmt.Errorf("unknown engine %q (valid: %s)",
		name, strings.Join(EngineNames(), ", "))
}

// DefaultConfig returns the Table II system.
func DefaultConfig() Config {
	return Config{
		Cores:          4,
		L1Bytes:        32 << 10,
		L1Ways:         4,
		L1Latency:      2,
		LLCBytes:       4 << 20,
		LLCWays:        16,
		LLCLatency:     18,
		PrefetchDegree: 8,
		MACLatencyCPU:  8,
		Scheme:         Baseline,
		WarmupInstr:    300_000,
		InstrPerCore:   300_000,
		Seed:           1,
		MaxCycles:      2_000_000_000,
	}
}

// Result reports one run.
type Result struct {
	Scheme     Scheme
	Workload   string
	CoreCycles []int64 // cycle at which each core retired InstrPerCore
	// WarmCycles is the cycle each core crossed its warm-up budget; the
	// measured window is (WarmCycles[i], CoreCycles[i]].
	WarmCycles []int64
	IPC        []float64
	MCStats    memctrl.Stats
	LLCMisses  uint64
	LLCHits    uint64
	Prefetches uint64
	// PluginStats holds each attached controller plugin's drained
	// counters, keyed by plugin name (nil when no plugins attached).
	PluginStats map[string]memctrl.PluginStats
	// CPI is the aggregate measured-window CPI stack (nil unless
	// Config.Attrib): each core's stack delta between its warm-up and
	// completion crossings, summed. Its Total() equals the summed
	// measured cycles exactly.
	CPI *attrib.CPIStack
}

// HarmonicMeanIPC aggregates per-core IPCs.
func (r Result) HarmonicMeanIPC() float64 {
	var inv float64
	for _, v := range r.IPC {
		inv += 1 / v
	}
	return float64(len(r.IPC)) / inv
}

// macBaseLine places the SGX/Synergy metadata region: high in the physical
// space, one metadata line per eight data lines.
const macBaseLine = uint64(15) << (30 - 6) // line address of the 15GB mark

// Completion tokens route memory-controller read completions back to the
// consumer that issued them: the kind bits say which routing table (the
// line's MSHR entry or the merged MAC-fetch table) the low bits key into.
// Line addresses fit far below bit 44 (16GB is 2^28 lines).
const (
	tokKindShift = 44
	tokKindData  = uint64(1) // data-line leg: joins mshr[line]
	tokKindMAC   = uint64(2) // MAC/metadata-line fetch: fans out macInflight[line]
)

// System is one assembled simulation instance.
type System struct {
	cfg   Config
	cores []*cpu.Core
	gens  []*workload.Generator
	l1    []*cache.Cache
	llc   *cache.Cache
	pf    *cache.StreamPrefetcher
	mc    *memctrl.Controller

	// mshr tracks in-flight line fills: line -> fill state.
	mshr map[uint64]*mshrEntry
	// macInflight merges concurrent SGX-style MAC-line fetches; each
	// waiter names the data line whose fill joins when the fetch lands.
	macInflight map[uint64][]macWaiter
	// mshrFree and macFree recycle finished MSHR entries (with their
	// waiter arrays) and MAC waiter lists, so steady-state misses do not
	// allocate. Nothing is released before its fill or fetch has fired.
	mshrFree []*mshrEntry
	macFree  [][]macWaiter
	// tree models counter/integrity-tree metadata traffic (SGXFullStyle).
	tree *itree.TrafficModel
	// pendingReads/pendingWrites retry when controller queues are full.
	pendingReads  fifo[deferredRead]
	pendingWrites fifo[uint64]

	lineMask uint64
	now      int64

	// Run-loop progress (fields, not locals, so checkpoints carry it):
	// warmCycle/doneCycle are each core's measurement crossings, remaining
	// counts cores still short of their budget.
	warmCycle []int64
	doneCycle []int64
	remaining int
	// warmSnapped/nextCkpt sequence the SnapshotWarm and CheckpointEvery
	// captures.
	warmSnapped bool
	nextCkpt    int64

	// coreCPI are the per-core attribution stacks (nil when Attrib off);
	// warmCPI snapshots each stack at its core's warm-up crossing.
	coreCPI []*attrib.CPIStack
	warmCPI []attrib.CPIStack
	// skipProbes is the event engine's replay scratch: one frozen probe
	// per started core during a skipped span (allocated once).
	skipProbes []attrib.Probe
	// skipNextTry/skipBackoff throttle skip attempts: after a failed
	// attempt the next one waits exponentially longer (capped), so
	// saturated phases — where some core is active nearly every cycle —
	// pay almost no probing overhead. Pure policy: whether an attempt
	// happens on a given cycle never changes results, only speed (and so
	// both are deliberately absent from checkpoints).
	skipNextTry int64
	skipBackoff int64

	// initErr defers construction-time failures (unknown mitigation
	// name) to Run, keeping NewSystem's signature.
	initErr error
}

type mshrEntry struct {
	// waiters are demand consumers, in arrival order (the order fills and
	// completions replay in — bit-identity depends on it).
	waiters []waiter
	// dirtyFill marks RFO fills that enter the caches dirty.
	dirtyFill bool
	// track follows the fill for cycle attribution (nil when Attrib is
	// off or the entry is prefetch-only).
	track *reqTrack
	// remaining counts outstanding memory legs (data line, MAC line, tree
	// levels); latest is the maximum CPU-cycle completion among the legs
	// that already arrived. The fill completes when remaining hits zero.
	remaining int
	latest    int64
}

// waiter is one demand consumer of a fill: the core (for the L1 install)
// and, for loads, the load token Deliver routes the completion to. RFO
// waiters (stores) install into L1 but deliver nothing.
type waiter struct {
	core    int
	seq     uint64
	deliver bool
}

// macWaiter is one consumer of a merged MAC/metadata-line fetch: the data
// line whose MSHR entry the completed fetch joins, or a fire-and-forget
// fetch (drop) from the writeback path.
type macWaiter struct {
	line uint64
	drop bool
}

type deferredRead struct {
	lineAddr uint64
	token    uint64
	// track, when set, is flipped out of its deferred state once the
	// controller accepts the read.
	track *reqTrack
}

// reqTrack follows one demand miss through the memory system so its
// waiters' stalled cycles can be attributed. The core's probe reads it
// once per stalled cycle; every field transition happens at existing
// completion boundaries, so tracking adds no events of its own.
type reqTrack struct {
	sys  *System
	line uint64
	// deferred marks the request parked outside a full controller queue.
	deferred bool
	// dataDone marks the data leg arrived while metadata legs (SGX MAC
	// line, tree levels) are still outstanding.
	dataDone bool
	// doneAt is the fill's completion timestamp once known; tail and
	// macTail partition its trailing latency into decode and MAC phases.
	doneAt  int64
	tail    int64
	macTail int64
}

// ProbeStall implements the stall-cause query (attrib.Prober).
func (t *reqTrack) ProbeStall(now int64) attrib.Component {
	if t.doneAt != 0 {
		if now >= t.doneAt {
			// Fill fully complete; a dependent load probing after its
			// producer finished is waiting on issue, not memory.
			return attrib.CompBase
		}
		// Completed: inside the fill's latency tail. Walk backwards from
		// the completion stamp: MAC verify last, ECC decode before it,
		// raw DRAM (bus/burst mapping) before that.
		switch {
		case now >= t.doneAt-t.macTail:
			return attrib.CompMAC
		case now >= t.doneAt-t.tail:
			return attrib.CompDecode
		}
		return attrib.CompDRAM
	}
	if t.deferred {
		return attrib.CompQueue
	}
	if t.dataDone {
		return attrib.CompMAC
	}
	// The controller ticks on even CPU cycles, after the cores: during a
	// core's Cycle(now) the MC clock reads (now-1)/2. Passing that cycle
	// explicitly (instead of reading the MC's live clock) keeps the
	// classification exact when the event engine replays skipped stall
	// cycles without stepping the controller.
	return t.sys.mc.ReadStallClassAt(t.line, (now-1)>>1)
}

// NewSystem builds the system for a config.
func NewSystem(cfg Config) *System {
	g := dram.Table2Geometry
	s := &System{
		cfg:         cfg,
		llc:         cache.New(cfg.LLCBytes, cfg.LLCWays),
		pf:          cache.NewStreamPrefetcher(cfg.PrefetchDegree),
		mc:          memctrl.New(g, dram.DDR4_3200()),
		mshr:        make(map[uint64]*mshrEntry),
		macInflight: make(map[uint64][]macWaiter),
		lineMask:    g.TotalBytes()/64 - 1,
		remaining:   cfg.Cores,
		nextCkpt:    cfg.CheckpointEvery,
	}
	s.mc.FCFS = cfg.FCFSScheduler
	s.mc.AttachTelemetry(cfg.Telemetry, cfg.Trace)
	s.mc.SetCompletionSink(s)
	if _, err := ParseEngine(cfg.Engine); err != nil {
		s.initErr = fmt.Errorf("sim: %w", err)
	}
	if (cfg.SnapshotAt > 0 || cfg.SnapshotWarm || cfg.CheckpointEvery > 0) && cfg.SnapshotFn == nil {
		s.initErr = errors.New("sim: snapshot capture requested without Config.SnapshotFn")
	}
	th := cfg.RHThreshold
	if th == 0 {
		th = 4800 // Table I, LPDDR4-new
	}
	if mit, err := memctrl.NewMitigationPlugin(cfg.Mitigation, th, cfg.Seed); err != nil {
		s.initErr = err
	} else {
		s.mc.AttachPlugin(mit) // nil-safe for "none"
	}
	if cfg.Scheme == SGXFullStyle {
		// Metadata region above the MAC region; 32KB on-chip metadata
		// cache, the counter/tree geometry of the 16GB memory.
		s.tree = itree.NewTrafficModel(macBaseLine+(1<<22), g.TotalBytes()/64, 32<<10)
	}
	s.warmCycle = make([]int64, cfg.Cores)
	s.doneCycle = make([]int64, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		gen := workload.NewGenerator(cfg.Workload, i, cfg.Seed)
		s.gens = append(s.gens, gen)
		s.l1 = append(s.l1, cache.New(cfg.L1Bytes, cfg.L1Ways))
		core := cpu.New(gen, &corePort{sys: s, core: i})
		if cfg.Attrib {
			st := &attrib.CPIStack{}
			core.AttachAttrib(st)
			s.coreCPI = append(s.coreCPI, st)
		}
		s.cores = append(s.cores, core)
	}
	if cfg.Attrib {
		s.warmCPI = make([]attrib.CPIStack, cfg.Cores)
	}
	return s
}

// cacheHitProbe attributes cycles hidden in L1/LLC hit latency. One
// shared constant probe serves every hit, keeping the hit path
// allocation-free (small-int interface boxing is static in the runtime).
var cacheHitProbe = attrib.ConstProbe(attrib.CompCache)

// corePort adapts the shared memory system to one core's MemoryPort.
type corePort struct {
	sys  *System
	core int
}

// Load implements cpu.MemoryPort.
func (p *corePort) Load(addr uint64, at int64, token uint64) {
	p.sys.load(p.core, addr>>6, at, token)
}

// Store implements cpu.MemoryPort.
func (p *corePort) Store(addr uint64, at int64) bool {
	return p.sys.store(p.core, addr>>6)
}

// LoadProbed implements cpu.ProbedPort: Load plus a stall-cause probe.
func (p *corePort) LoadProbed(addr uint64, at int64, token uint64) attrib.Prober {
	return p.sys.load(p.core, addr>>6, at, token)
}

func (s *System) load(core int, line uint64, at int64, token uint64) attrib.Prober {
	line &= s.lineMask
	if s.l1[core].Lookup(line, false) {
		s.cores[core].Deliver(token, at+s.cfg.L1Latency)
		return cacheHitProbe
	}
	if s.llc.Lookup(line, false) {
		s.fillL1(core, line, false)
		s.cores[core].Deliver(token, at+s.cfg.LLCLatency)
		return cacheHitProbe
	}
	// Train the stream detector on demand misses only: LLC-hit traffic
	// (hot sets) would otherwise churn the table and evict live streams.
	s.prefetchOn(line)
	e := s.demandMiss(core, line, false, token, true)
	if e.track != nil {
		return e.track
	}
	// A miss that merges into a prefetch-only entry has no track and
	// returns nil: its wait is charged as generic DRAM latency.
	return nil
}

// storeMissCap bounds outstanding write-allocate misses: beyond it the
// store buffer refuses new missing stores and the core stalls (real
// store-buffer backpressure; without it, metadata-amplified schemes let
// store traffic outrun the controller without bound).
const storeMissCap = 192

func (s *System) store(core int, line uint64) bool {
	line &= s.lineMask
	if s.l1[core].Lookup(line, true) {
		return true
	}
	if s.llc.Lookup(line, false) {
		s.fillL1(core, line, true)
		return true
	}
	if len(s.mshr) >= storeMissCap || s.pendingReads.len() > 0 {
		return false
	}
	// Write-allocate: fetch the line (RFO); the store itself retires via
	// the store buffer, so nobody waits on the fill.
	s.demandMiss(core, line, true, 0, false)
	return true
}

// demandMiss joins or creates the line's MSHR entry and issues the memory
// read through the scheme adapter. It returns the entry so load can hand
// the entry's attribution probe to the core.
func (s *System) demandMiss(core int, line uint64, dirtyFill bool, seq uint64, deliver bool) *mshrEntry {
	if e, ok := s.mshr[line]; ok {
		e.waiters = append(e.waiters, waiter{core: core, seq: seq, deliver: deliver})
		e.dirtyFill = e.dirtyFill || dirtyFill
		return e
	}
	e := s.newMSHR()
	e.dirtyFill = dirtyFill
	e.waiters = append(e.waiters, waiter{core: core, seq: seq, deliver: deliver})
	if s.cfg.Attrib {
		// The track must exist before schemeRead runs: the scheme adapter
		// reads it off the entry to stamp completion phases.
		e.track = &reqTrack{sys: s, line: line}
	}
	s.mshr[line] = e
	s.schemeRead(line, e)
	return e
}

// newMSHR takes a cleared entry from the free list, or allocates one.
func (s *System) newMSHR() *mshrEntry {
	if n := len(s.mshrFree); n > 0 {
		e := s.mshrFree[n-1]
		s.mshrFree = s.mshrFree[:n-1]
		return e
	}
	return &mshrEntry{}
}

// finishFill installs a fetched line and wakes its waiters, then recycles
// the entry. Its track (a probe cores may still hold) is not recycled.
func (s *System) finishFill(line uint64, cpuDone int64) {
	e := s.mshr[line]
	delete(s.mshr, line)
	s.fillLLC(line, e.dirtyFill)
	for _, w := range e.waiters {
		s.fillL1(w.core, line, e.dirtyFill)
		if w.deliver {
			s.cores[w.core].Deliver(w.seq, cpuDone)
		}
	}
	*e = mshrEntry{waiters: e.waiters[:0]}
	s.mshrFree = append(s.mshrFree, e)
}

// fillL1 installs a line into a core's L1, spilling dirty evictions into
// the (inclusive) LLC.
func (s *System) fillL1(core int, line uint64, dirty bool) {
	ev := s.l1[core].Fill(line, dirty)
	if ev.Valid && ev.Dirty {
		// The LLC holds every L1 line (inclusive); mark it dirty there.
		if !s.llc.Lookup(ev.LineAddr, true) {
			// Back-invalidation raced the eviction: write through.
			s.writeback(ev.LineAddr)
		}
	}
}

// fillLLC installs a line into the LLC, back-invalidating L1 copies of the
// victim and writing back dirty data.
func (s *System) fillLLC(line uint64, dirty bool) {
	ev := s.llc.Fill(line, dirty)
	if !ev.Valid {
		return
	}
	evDirty := ev.Dirty
	for _, l1 := range s.l1 {
		_, d := l1.Invalidate(ev.LineAddr)
		evDirty = evDirty || d
	}
	if evDirty {
		s.writeback(ev.LineAddr)
	}
}

// prefetchOn trains the stream detector with one LLC access and launches
// its suggestions as LLC fills. Prefetches are dropped, not queued, when
// the controller is saturated — useless prefetches must never crowd out
// demand traffic.
func (s *System) prefetchOn(trigger uint64) {
	suggestions := s.pf.OnAccess(trigger)
	if len(suggestions) == 0 {
		return
	}
	// Leave headroom for demand reads; prefetching into a saturated
	// controller (or on top of an overflow backlog) only adds queueing
	// delay — and under metadata-amplified schemes it would grow the
	// backlog without bound.
	if s.mc.PendingReads() >= memctrl.ReadQueueSize*3/4 || s.pendingReads.len() > 0 {
		return
	}
	for _, pl := range suggestions {
		pl &= s.lineMask
		if s.llc.Contains(pl) {
			continue
		}
		if _, ok := s.mshr[pl]; ok {
			continue
		}
		e := s.newMSHR()
		s.mshr[pl] = e
		s.schemeRead(pl, e)
	}
}

// ---------------------------------------------------------------------------
// Scheme adapter: latency and traffic per protection organization
// ---------------------------------------------------------------------------

// metaLine maps a data line to its MAC/parity metadata line (one metadata
// line per eight data lines, in a dedicated region).
func (s *System) metaLine(line uint64) uint64 {
	return (macBaseLine + line/8) & s.lineMask
}

// schemeRead issues the memory legs of one line fill under the scheme's
// latency/traffic rules, arming the entry's join counter. Completions
// arrive through OnReadDone and meet in joinLeg, which stamps the entry's
// attribution track and finishes the fill when the last leg lands.
func (s *System) schemeRead(line uint64, e *mshrEntry) {
	switch s.cfg.Scheme {
	case Baseline, SafeGuard, SynergyStyle:
		e.remaining = 1
		s.mcReadTracked(line, e.track, tokKindData<<tokKindShift|line)
	case SGXStyle:
		// Data is usable once both the line and its MAC line arrived and
		// the MAC check ran. In-flight MAC-line fetches are shared: eight
		// data lines map to one MAC line, so concurrent misses on
		// neighbouring lines coalesce (no MAC cache — the paper's
		// fair-comparison rule — only MSHR-style merging).
		e.remaining = 2
		s.mcReadTracked(line, e.track, tokKindData<<tokKindShift|line)
		s.macRead(s.metaLine(line), macWaiter{line: line})
	case SGXFullStyle:
		// SGXStyle plus the counter/tree path: data is usable only after
		// the data line, the MAC line, and every metadata-cache-missing
		// tree level have arrived.
		treeReads, treeWBs := s.tree.OnAccess(line, false)
		e.remaining = 2 + len(treeReads)
		s.mcReadTracked(line, e.track, tokKindData<<tokKindShift|line)
		s.macRead(s.metaLine(line), macWaiter{line: line})
		for _, t := range treeReads {
			s.macRead(t&s.lineMask, macWaiter{line: line})
		}
		for _, wb := range treeWBs {
			s.mcWrite(wb & s.lineMask)
		}
	}
}

// OnReadDone implements memctrl.CompletionSink: the controller hands back
// the completion token of a finished read and its MC-cycle timestamp, and
// the kind bits route it to the owning join table.
func (s *System) OnReadDone(token uint64, mcDone int64) {
	line := token & (1<<tokKindShift - 1)
	switch token >> tokKindShift {
	case tokKindData:
		e := s.mshr[line]
		if tr := e.track; tr != nil && (s.cfg.Scheme == SGXStyle || s.cfg.Scheme == SGXFullStyle) {
			tr.dataDone = true // now waiting on the MAC leg
		}
		s.joinLeg(line, e, mcDone*2)
	case tokKindMAC:
		// Detach the waiter list before fanning out: a completion may
		// request this same MAC line again (writeback-path tree fetches),
		// and that new request must start a fresh fetch rather than append
		// to a list we are about to drop.
		done := mcDone * 2
		ws := s.macInflight[line]
		delete(s.macInflight, line)
		for _, w := range ws {
			if w.drop {
				continue
			}
			s.joinLeg(w.line, s.mshr[w.line], done)
		}
		s.macFree = append(s.macFree, ws[:0])
	default:
		panic(fmt.Sprintf("sim: completion token %#x has unknown kind", token))
	}
}

// joinLeg folds one completed memory leg into the entry's join; the last
// leg stamps the track's completion phases and finishes the fill.
func (s *System) joinLeg(line uint64, e *mshrEntry, cpuDone int64) {
	if cpuDone > e.latest {
		e.latest = cpuDone
	}
	if e.remaining--; e.remaining > 0 {
		return
	}
	dec := s.cfg.ECCDecodeCPU
	mac := s.cfg.MACLatencyCPU
	if s.cfg.Scheme == Baseline {
		mac = 0
	}
	done := e.latest + dec + mac
	if tr := e.track; tr != nil {
		tr.doneAt, tr.tail, tr.macTail = done, dec+mac, mac
	}
	s.finishFill(line, done)
}

// macRead fetches a MAC line, merging with an identical fetch in flight.
func (s *System) macRead(macLine uint64, w macWaiter) {
	if ws, ok := s.macInflight[macLine]; ok {
		s.macInflight[macLine] = append(ws, w)
		return
	}
	var ws []macWaiter
	if n := len(s.macFree); n > 0 {
		ws = s.macFree[n-1]
		s.macFree = s.macFree[:n-1]
	}
	s.macInflight[macLine] = append(ws, w)
	s.mcReadTracked(macLine, nil, tokKindMAC<<tokKindShift|macLine)
}

// writeback issues a memory write with the scheme's traffic rules.
func (s *System) writeback(line uint64) {
	s.mcWrite(line)
	switch s.cfg.Scheme {
	case SGXStyle, SynergyStyle:
		// MAC-region update (SGX) or remote parity update (Synergy).
		s.mcWrite(s.metaLine(line))
	case SGXFullStyle:
		s.mcWrite(s.metaLine(line))
		// Writes bump the version counter: fetch any missing tree levels
		// (nobody waits on these) and absorb displaced dirty counter lines.
		treeReads, treeWBs := s.tree.OnAccess(line, true)
		for _, t := range treeReads {
			s.macRead(t&s.lineMask, macWaiter{drop: true})
		}
		for _, wb := range treeWBs {
			s.mcWrite(wb & s.lineMask)
		}
	}
}

// mcReadTracked enqueues a tokenized controller read with attribution: a
// request parked at a full controller queue marks its track deferred
// (charged to CompQueue) until retryDeferred gets it accepted.
func (s *System) mcReadTracked(line uint64, tr *reqTrack, token uint64) {
	if !s.mc.EnqueueReadToken(line, token) {
		if tr != nil {
			tr.deferred = true
		}
		s.pendingReads.push(deferredRead{lineAddr: line, token: token, track: tr})
	}
}

func (s *System) mcWrite(line uint64) {
	if !s.mc.EnqueueWrite(line) {
		s.pendingWrites.push(line)
	}
}

func (s *System) retryDeferred() {
	n := 0
	for reads := s.pendingReads.items(); n < len(reads) && s.mc.CanAcceptRead(); n++ {
		d := reads[n]
		if !s.mc.EnqueueReadToken(d.lineAddr, d.token) {
			break
		}
		if d.track != nil {
			d.track.deferred = false
		}
	}
	s.pendingReads.pop(n)
	n = 0
	for writes := s.pendingWrites.items(); n < len(writes) && s.mc.CanAcceptWrite(); n++ {
		if !s.mc.EnqueueWrite(writes[n]) {
			break
		}
	}
	s.pendingWrites.pop(n)
}

// fifo is a slice-backed FIFO queue that reuses the space its consumed
// prefix frees, so a steady backlog does not allocate.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// items returns the queued entries, oldest first.
func (q *fifo[T]) items() []T { return q.buf[q.head:] }

func (q *fifo[T]) push(v T) {
	// Compact when full and at least half the buffer is consumed prefix:
	// each copied entry is paid for by an earlier pop, so push stays
	// amortized O(1).
	if len(q.buf) == cap(q.buf) && q.head >= len(q.buf)/2 {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// pop drops the n oldest entries.
func (q *fifo[T]) pop(n int) {
	q.head += n
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

// Run simulates a warm-up phase followed by the measured phase and returns
// per-core IPCs over the measured instructions (each core measured at its
// own boundary crossings while every core keeps running — the paper's rate
// methodology).
func (s *System) Run() (Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cancellation, polled every 1024 cycles so a
// SIGINT lands within microseconds of simulated progress. On a freshly
// built system it runs from cycle 1; on a system primed by RestoreSnapshot
// it continues from the checkpoint cycle, with results bit-identical to a
// run that was never interrupted.
func (s *System) RunContext(ctx context.Context) (Result, error) {
	if s.initErr != nil {
		return Result{}, s.initErr
	}
	target := s.cfg.WarmupInstr + s.cfg.InstrPerCore
	event := s.cfg.Engine != "cycle"
	for s.now++; s.remaining > 0; s.now++ {
		if s.now > s.cfg.MaxCycles {
			return Result{}, fmt.Errorf("sim: exceeded MaxCycles=%d (%d cores unfinished)", s.cfg.MaxCycles, s.remaining)
		}
		if s.now&1023 == 0 && ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
		s.retryDeferred()
		for i, c := range s.cores {
			// Stagger core start-up so the rate copies desynchronize
			// (absorbed entirely by the warm-up phase).
			if s.now < int64(i)*997 {
				continue
			}
			c.Cycle(s.now)
			if s.warmCycle[i] == 0 && c.Retired >= s.cfg.WarmupInstr {
				s.warmCycle[i] = s.now
				if s.coreCPI != nil {
					// Snapshot after this cycle's charge: the measured
					// window covers cycles (warmCycle, doneCycle], exactly
					// doneCycle-warmCycle Cycle calls.
					s.warmCPI[i] = *s.coreCPI[i]
				}
			}
			if s.doneCycle[i] == 0 && c.Retired >= target {
				s.doneCycle[i] = s.now
				s.remaining--
				if s.coreCPI != nil {
					// Freeze the measured window in place; the core keeps
					// cycling (rate methodology) but later charges must
					// not leak into the measurement.
					s.warmCPI[i] = s.coreCPI[i].Sub(s.warmCPI[i])
				}
			}
		}
		if s.now&1 == 0 {
			s.mc.Tick()
		}
		// Snapshot capture sits at end-of-cycle: every state transition of
		// cycle s.now has happened, and the event engine never skips a
		// capture cycle (trySkip caps its target below), so both engines
		// capture identical state here.
		if s.cfg.SnapshotFn != nil {
			if err := s.maybeSnapshot(); err != nil {
				return Result{}, err
			}
			if s.cfg.SnapshotStop && s.cfg.SnapshotAt > 0 && s.now == s.cfg.SnapshotAt {
				return Result{}, ErrStopped
			}
		}
		if event && s.remaining > 0 && s.now >= s.skipNextTry {
			if s.trySkip(ctx) {
				s.skipBackoff = 0
			} else {
				if s.skipBackoff < 16 {
					s.skipBackoff = 2*s.skipBackoff + 1
				}
				s.skipNextTry = s.now + s.skipBackoff
			}
		}
	}
	res := Result{
		Scheme:      s.cfg.Scheme,
		Workload:    s.cfg.Workload.Name,
		CoreCycles:  append([]int64(nil), s.doneCycle...),
		WarmCycles:  append([]int64(nil), s.warmCycle...),
		MCStats:     s.mc.Stats,
		LLCMisses:   s.llc.Misses,
		LLCHits:     s.llc.Hits,
		Prefetches:  s.pf.Issued,
		PluginStats: s.mc.DrainPluginStats(),
	}
	for i, dc := range s.doneCycle {
		res.IPC = append(res.IPC, float64(s.cfg.InstrPerCore)/float64(dc-s.warmCycle[i]))
	}
	if s.coreCPI != nil {
		// warmCPI now holds each core's frozen measured-window delta.
		total := &attrib.CPIStack{}
		for i := range s.warmCPI {
			total.Merge(s.warmCPI[i])
		}
		res.CPI = total
	}
	if reg := s.cfg.Telemetry; reg != nil {
		reg.Counter("llc.hits").Add(s.llc.Hits)
		reg.Counter("llc.misses").Add(s.llc.Misses)
		reg.Counter("llc.prefetches").Add(s.pf.Issued)
		reg.Gauge("sim.hmean_ipc").Set(res.HarmonicMeanIPC())
		memctrl.PublishPluginStats(reg, res.PluginStats)
		if res.CPI != nil {
			attrib.PublishCPI(reg, s.cfg.Scheme.String(), *res.CPI)
		}
	}
	return res, nil
}

// maybeSnapshot fires the configured captures due at the end of cycle
// s.now: the one-shot SnapshotAt, the periodic CheckpointEvery grid, and
// the all-cores-warm point. At most one snapshot is encoded per cycle even
// when several triggers coincide.
func (s *System) maybeSnapshot() error {
	due := s.cfg.SnapshotAt > 0 && s.now == s.cfg.SnapshotAt
	if s.cfg.CheckpointEvery > 0 && s.now == s.nextCkpt {
		due = true
		s.nextCkpt += s.cfg.CheckpointEvery
	}
	if s.cfg.SnapshotWarm && !s.warmSnapped {
		allWarm := true
		for _, w := range s.warmCycle {
			if w == 0 {
				allWarm = false
				break
			}
		}
		if allWarm {
			due = true
			s.warmSnapped = true
		}
	}
	if !due {
		return nil
	}
	data, err := s.EncodeSnapshot()
	if err != nil {
		return err
	}
	return s.cfg.SnapshotFn(data)
}

// nextSnapshotAt returns the earliest cycle after s.now at which a
// scheduled capture (SnapshotAt or the checkpoint grid) must execute; the
// warm capture needs no bound because it can only trigger on a cycle that
// retires instructions, which a skipped span never does.
func (s *System) nextSnapshotAt() int64 {
	next := int64(1) << 62
	if s.cfg.SnapshotAt > s.now {
		next = s.cfg.SnapshotAt
	}
	if s.cfg.CheckpointEvery > 0 && s.nextCkpt > s.now && s.nextCkpt < next {
		next = s.nextCkpt
	}
	return next
}

// trySkip is the event engine's skip-ahead step, run at the end of a
// loop iteration. When every started core is provably inert (ROB full:
// no retirement, no dispatch, no store retries) and the controller's
// next event is in the future, it jumps s.now to one cycle before the
// earliest thing that can happen — a core's own wake-up, a late core's
// staggered start, the controller's next event (MC cycle M is processed
// during CPU cycle 2M), a scheduled snapshot capture, or the MaxCycles
// guard. Skipped cycles change no simulator state except attribution,
// which is replayed per cycle from each core's frozen stall probe so
// every CPIStack still sums exactly to its core's cycle count — the
// exact-sum invariant holds under skips by construction. Reports whether
// a skip happened, feeding the caller's attempt backoff; skipping is
// always optional, so the backoff policy affects speed only, never
// results.
func (s *System) trySkip(ctx context.Context) bool {
	// Cheapest rejection first: most iterations some core is active, so
	// scan the cores before touching the controller's (pricier) wheel.
	if s.coreCPI != nil && s.skipProbes == nil {
		s.skipProbes = make([]attrib.Probe, len(s.cores))
	}
	target := s.cfg.MaxCycles + 1
	started := len(s.cores)
	for i, c := range s.cores {
		if s.now < int64(i)*997 {
			// Not yet started: it first cycles at i*997, and later cores
			// start later still (the stagger is monotonic).
			if t := int64(i) * 997; t < target {
				target = t
			}
			started = i
			break
		}
		ok, wake, probe := c.SkipState()
		if !ok {
			return false
		}
		if wake < target {
			target = wake
		}
		if s.skipProbes != nil {
			s.skipProbes[i] = probe
		}
	}
	// A scheduled capture cycle must execute in full, never be jumped.
	if ns := s.nextSnapshotAt(); target > ns {
		target = ns
	}
	// The cores wake too soon for a skip to pay for the wheel probe and
	// clock jump below: a span this short costs more to set up than the
	// handful of cheap ROB-full iterations it would save.
	if target <= s.now+8 {
		return false
	}
	// A deferred request that the controller could now accept means
	// retryDeferred acts next iteration: not an idle span. Queue
	// occupancy only changes at controller events, so this is stable
	// across the span once checked.
	if (s.pendingReads.len() > 0 && s.mc.CanAcceptRead()) ||
		(s.pendingWrites.len() > 0 && s.mc.CanAcceptWrite()) {
		return false
	}
	if mcNext := s.mc.NextEventAt(); mcNext < int64(1)<<61 {
		if t := 2 * mcNext; t < target {
			target = t
		}
	}
	if target <= s.now+1 {
		return false
	}
	// The per-cycle loop polls cancellation every 1024 cycles; a skip
	// must not outrun that responsiveness. Refresh bounds every span to
	// under one tREFI, so refusing to skip once cancelled leaves at most
	// that many cycles before the per-cycle poll returns.
	if ctx.Err() != nil {
		return false
	}
	if s.coreCPI != nil {
		// Replay the skipped cycles' attribution charges. Core state is
		// frozen, so each core's classify reduces to its probe; the probe
		// itself can be time-varying (refresh blackouts, gate-denial
		// windows expire), hence per-cycle evaluation.
		for u := s.now + 1; u < target; u++ {
			for i := 0; i < started; i++ {
				s.coreCPI[i].Charge(s.skipProbes[i](u))
			}
		}
	}
	// Land the MC clock where the per-cycle loop would have it entering
	// iteration `target`: the controller ticks at the end of even CPU
	// cycles, so it reads (target-1)/2. All jumped-over MC cycles are
	// strictly before NextEventAt — no-op ticks by definition.
	s.mc.AdvanceTo((target - 1) >> 1)
	s.now = target - 1
	return true
}

// RunWorkload is the one-call experiment helper: simulate a workload under
// a scheme with the default Table II system.
func RunWorkload(w workload.Params, scheme Scheme, macLatencyCPU int64, instr int64, seed uint64) (Result, error) {
	cfg := DefaultConfig()
	cfg.Workload = w
	cfg.Scheme = scheme
	if macLatencyCPU > 0 {
		cfg.MACLatencyCPU = macLatencyCPU
	}
	if instr > 0 {
		cfg.InstrPerCore = instr
	}
	cfg.Seed = seed
	return NewSystem(cfg).Run()
}
