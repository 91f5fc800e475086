package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"safeguard/internal/experiments"
	"safeguard/internal/sim"
	"safeguard/internal/workload"
)

// perf-sweep: the Figure 7/12 timing-simulation grid. Each unit is one
// cold simulation run of one (profile, scheme) at the Quick budgets; the
// grid repeats with a fresh simulation seed per round, and a run ends on
// a whole grid, so every run holds every (profile, scheme) equally often.
// After every block of six units (one per profile) the client also
// resumes one pooled round-0 run from its warm-start snapshot: the cached
// unit.

type perfProfile struct {
	name, class string
}

var perfProfiles = []perfProfile{
	{"mcf", "membound"}, {"lbm", "membound"}, {"omnetpp", "membound"},
	{"leela", "computebound"}, {"exchange2", "computebound"}, {"gcc", "mixed"},
}

var perfSchemes = []sim.Scheme{sim.Baseline, sim.SafeGuard, sim.SGXStyle, sim.SynergyStyle}

// paperFig12 is the paper's average slowdown per scheme (Figure 12).
var paperFig12 = map[sim.Scheme]float64{sim.SafeGuard: 0.007, sim.SGXStyle: 0.187, sim.SynergyStyle: 0.078}

// perfPooledUnit is the unit whose warm-start snapshot set-up pools for
// the cached units: round 0's Baseline run of mcf. One cell keeps every
// cached unit the same work, so their median tracks only the host.
const perfPooledUnit = 0

// warmHit is one cached unit: a pooled run resumed from its snapshot.
type warmHit struct {
	u    unitResult
	cell int // the pooled unit it re-ran
	ipc  float64
}

type perfSweep struct {
	e      *env
	params []workload.Params
	quick  experiments.PerfConfig
	pool   *experiments.MemWarmStore

	mu      sync.Mutex
	ipc     map[int]float64 // unit -> harmonic-mean IPC
	results map[int]sim.Result
	hits    []warmHit
}

// newPerfSweep resolves the profiles and fills the warm-start pool the
// cached units read (the sgperf -snapshot step).
func newPerfSweep(e *env) (runner, error) {
	p := &perfSweep{e: e, quick: experiments.QuickPerf(), pool: experiments.NewMemWarmStore(),
		ipc: make(map[int]float64), results: make(map[int]sim.Result)}
	for _, pr := range perfProfiles {
		w, err := workload.ByName(pr.name)
		if err != nil {
			return nil, err
		}
		p.params = append(p.params, w)
	}
	sc := p.config(perfPooledUnit)
	snap, err := experiments.MintWarmSnapshot(e.ctx, sc)
	if err != nil {
		return nil, fmt.Errorf("warm snapshot: %w", err)
	}
	return p, p.pool.PutWarm(experiments.WarmKeyFor(sc), snap)
}

func (p *perfSweep) clients() int { return p.e.workers }
func (p *perfSweep) batch() int   { return len(perfProfiles) * len(perfSchemes) }
func (p *perfSweep) close()       {}

// cell decodes unit i: scheme-major within a round, so a partial round
// still mixes memory- and compute-bound profiles.
func (p *perfSweep) cell(i int) (round, prof int, scheme sim.Scheme) {
	grid := len(perfProfiles) * len(perfSchemes)
	k := i % grid
	return i / grid, k % len(perfProfiles), perfSchemes[k/len(perfProfiles)]
}

// config builds unit i's simulation exactly as experiments' sweep pool
// does for one (workload, scheme, seed) cell.
func (p *perfSweep) config(i int) sim.Config {
	round, prof, scheme := p.cell(i)
	sc := sim.DefaultConfig()
	sc.Workload = p.params[prof]
	sc.Scheme = scheme
	sc.MACLatencyCPU = p.quick.MACLatencyCPU
	sc.InstrPerCore = p.quick.InstrPerCore
	sc.WarmupInstr = p.quick.WarmupInstr
	sc.Seed = p.e.seed*1000 + uint64(round) + 1
	return sc
}

// instructions is the simulated instruction count of one run: every
// core's warm-up plus measured budget.
func instructions(sc sim.Config) float64 {
	return float64(sc.Cores) * float64(sc.WarmupInstr+sc.InstrPerCore)
}

func (p *perfSweep) unit(i int, tr *tracer, parent int) unitResult {
	sc := p.config(i)
	t0 := time.Now()
	id := tr.begin("sim.new", parent, i)
	sys := sim.NewSystem(sc)
	tr.end(id)
	id = tr.begin("sim.run", parent, i)
	res, err := sys.RunContext(p.e.ctx)
	tr.end(id)
	u := unitResult{ms: msSince(t0), work: instructions(sc)}
	if err != nil {
		u.err = err
		return u
	}
	ipc := res.HarmonicMeanIPC()
	if !(ipc > 0) {
		u.err = fmt.Errorf("non-positive IPC %v", ipc)
	}
	u.digest = fmt.Sprintf("%s/%s/seed%d ipc=%.17g", sc.Workload.Name, sc.Scheme, sc.Seed, ipc)
	p.mu.Lock()
	p.ipc[i] = ipc
	p.results[i] = res
	p.mu.Unlock()
	if i%len(perfProfiles) == len(perfProfiles)-1 {
		h := p.warmHit(perfPooledUnit, tr, parent)
		u.work += h.u.work
		p.mu.Lock()
		p.hits = append(p.hits, h)
		p.mu.Unlock()
	}
	return u
}

// warmHit re-runs the pooled cell through experiments.WarmRun (the sgperf
// -resume path): restore the post-warm-up snapshot, simulate only the
// measured phase.
func (p *perfSweep) warmHit(cell int, tr *tracer, parent int) warmHit {
	sc := p.config(cell)
	t0 := time.Now()
	id := tr.begin("experiments.warm_run", parent, cell)
	res, err := experiments.WarmRun(p.e.ctx, sc, p.pool)
	tr.end(id)
	h := warmHit{u: unitResult{index: cell, ms: msSince(t0), err: err}, cell: cell}
	if err == nil {
		h.ipc = res.HarmonicMeanIPC()
		h.u.work = float64(sc.Cores) * float64(sc.InstrPerCore)
	}
	return h
}

// cached checks every warm-start resume against its cell's cold run:
// the IPC must be identical, and every resume must have hit the pool.
func (p *perfSweep) cached() []unitResult {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]unitResult, len(p.hits))
	for k, h := range p.hits {
		out[k] = h.u
		cold, ok := p.ipc[h.cell]
		switch {
		case h.u.err != nil:
		case !ok:
			out[k].err = fmt.Errorf("cold run of unit %d missing", h.cell)
		case h.ipc != cold:
			out[k].err = fmt.Errorf("warm-start IPC %.17g != cold IPC %.17g", h.ipc, cold)
		}
	}
	if p.pool.Hits != len(out) && len(out) > 0 && out[0].err == nil {
		out[0].err = fmt.Errorf("%d of %d warm runs hit the pool", p.pool.Hits, len(out))
	}
	return out
}

func (p *perfSweep) extras(*tracer) []unitResult { return nil }

// notes prints every complete round's slowdown table beside the paper's
// Figure 12 averages.
func (p *perfSweep) notes() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	grid := len(perfProfiles) * len(perfSchemes)
	var out []string
	for round := 0; ; round++ {
		complete := true
		for k := 0; k < grid; k++ {
			if _, ok := p.ipc[round*grid+k]; !ok {
				complete = false
			}
		}
		if !complete {
			return out
		}
		avg := make(map[sim.Scheme]float64)
		for prof, pr := range perfProfiles {
			base := p.ipc[round*grid+prof]
			line := fmt.Sprintf("round %d %-9s base IPC %.4f", round, pr.name, base)
			for s, scheme := range perfSchemes[1:] {
				sd := base/p.ipc[round*grid+(s+1)*len(perfProfiles)+prof] - 1
				avg[scheme] += sd / float64(len(perfProfiles))
				line += fmt.Sprintf("  %s %+.2f%%", scheme, 100*sd)
			}
			out = append(out, line)
		}
		line := fmt.Sprintf("round %d average slowdown, model vs paper (Figure 12), not validated against hardware:", round)
		for _, scheme := range perfSchemes[1:] {
			line += fmt.Sprintf("  %s %.2f%% vs %.1f%%", scheme, 100*avg[scheme], 100*paperFig12[scheme])
		}
		out = append(out, line)
	}
}

func (p *perfSweep) layers(spans []span, units []unitResult, m map[string]float64) {
	var busy, wall float64
	lo, hi := int64(-1), int64(0)
	for _, s := range spans {
		if s.Name == "perf-sweep.unit" {
			busy += float64(s.dur())
			if lo < 0 || s.Start < lo {
				lo = s.Start
			}
			hi = max(hi, s.End)
		}
	}
	wall = float64(hi - lo)
	m["experiments.pool_idle_frac"] = 1 - ratio(busy, wall*float64(p.clients()))
	m["sim.new_ms"] = median(durationsMS(spans, "sim.new"))
	m["sim.run_ms"] = median(durationsMS(spans, "sim.run"))

	runNS := make(map[int]float64)
	for _, s := range spans {
		if s.Name == "sim.run" {
			runNS[s.Unit] = float64(s.dur())
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	classNS, classInstr := make(map[string]float64), make(map[string]float64)
	var totalNS, cycles, instr, llcHits, llcMisses, prefetches float64
	var reads, writes, rowHits, rowMisses, qfull, vrrs float64
	idx := make([]int, 0, len(p.results))
	for i := range p.results {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		res := p.results[i]
		sc := p.config(i)
		_, prof, _ := p.cell(i)
		n := instructions(sc)
		classNS[perfProfiles[prof].class] += runNS[i]
		classInstr[perfProfiles[prof].class] += n
		totalNS += runNS[i]
		instr += n
		var maxCycle int64
		for _, c := range res.CoreCycles {
			maxCycle = max(maxCycle, c)
		}
		cycles += float64(maxCycle)
		llcHits += float64(res.LLCHits)
		llcMisses += float64(res.LLCMisses)
		prefetches += float64(res.Prefetches)
		mc := res.MCStats
		reads += float64(mc.Reads)
		writes += float64(mc.Writes)
		rowHits += float64(mc.RowHits)
		rowMisses += float64(mc.RowMisses)
		qfull += float64(mc.ReadQueueFullEvents)
		vrrs += float64(mc.VRRs)
	}
	m["sim.host_ns_per_instr.membound"] = ratio(classNS["membound"], classInstr["membound"])
	m["sim.host_ns_per_instr.computebound"] = ratio(classNS["computebound"], classInstr["computebound"])
	m["sim.host_ns_per_cycle"] = ratio(totalNS, cycles)
	m["cpu.instr"] = instr
	m["cache.llc_accesses"] = llcHits + llcMisses
	m["cache.llc_miss_ratio"] = ratio(llcMisses, llcHits+llcMisses)
	m["cache.prefetches"] = prefetches
	m["memctrl.dram_reads"] = reads
	m["memctrl.dram_writes"] = writes
	m["memctrl.row_hit_rate"] = ratio(rowHits, rowHits+rowMisses)
	m["memctrl.read_queue_full"] = qfull
	m["memctrl.vrrs"] = vrrs
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
