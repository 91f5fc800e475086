// Row-Hammer mitigations (PARA, TRR, Graphene, BlockHammer) as plugins
// over the ACT/REF command stream: the one implementation of each. A
// plugin issues victim-row refreshes through the VRRSink it is bound to.
// Attached to a Controller, the sink is the controller's VRR queue, which
// issues them under real bank timing; driven by payload.RunAttack, the
// sink refreshes the bank model at once.
//
// State is kept per (rank, bank): one sampler/tracker/filter instance per
// bank, exactly as a per-bank deployment would provision them.
package memctrl

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"safeguard/internal/bloom"
)

// The refresh-window constants every mitigation is sized against.
const (
	// ActsPerWindow is the activation budget of one bank within a 64ms
	// refresh window (tRC ≈ 47ns ⇒ ~1.36M activates).
	ActsPerWindow = 1_360_000
	// REFsPerWindow is the number of REF commands issued per 64ms window
	// (tREFI = 7.8us).
	REFsPerWindow = 8192
)

type bankKey struct{ rank, bank int }

// vrrIssuer is the VRR half of a refreshing mitigation: it implements
// SinkBinder and counts the victim-row refreshes the sink accepts.
type vrrIssuer struct {
	sink VRRSink
	vrrs float64
}

// BindSink implements SinkBinder.
func (v *vrrIssuer) BindSink(s VRRSink) { v.sink = s }

func (v *vrrIssuer) vrr(rank, bank, row int) {
	if v.sink != nil && v.sink.EnqueueVRR(rank, bank, row) {
		v.vrrs++
	}
}

// MitigationNames lists the registry's mitigation names.
func MitigationNames() []string {
	return []string{"none", "para", "trr", "graphene", "blockhammer"}
}

// NewMitigationPlugin resolves a mitigation by registry name, sized for
// the given RH-Threshold. "none" (or the empty string) returns a nil
// plugin; unknown names are an error naming the valid set.
func NewMitigationPlugin(name string, threshold int, seed uint64) (Plugin, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "none":
		return nil, nil
	}
	if threshold <= 0 {
		return nil, fmt.Errorf("mitigation %q requires a positive RH-Threshold, got %d", name, threshold)
	}
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "para":
		return NewPARAPlugin(threshold, seed), nil
	case "trr":
		return NewTRRPlugin(4), nil
	case "graphene":
		return NewGraphenePlugin(threshold), nil
	case "blockhammer":
		return NewBlockHammerPlugin(threshold), nil
	default:
		return nil, fmt.Errorf("unknown mitigation %q (valid: %s)",
			name, strings.Join(MitigationNames(), ", "))
	}
}

// CheckMitigation validates a mitigation name as a sweep will size it:
// a zero RH-Threshold means Table I's 4800.
func CheckMitigation(name string, threshold int) error {
	_, err := NewMitigationPlugin(name, cmp.Or(threshold, 4800), 1)
	return err
}

// ---------------------------------------------------------------------------
// PARA
// ---------------------------------------------------------------------------

// PARAPlugin is PARA (Kim et al., ISCA'14) in the controller: on every
// ACT, with probability P, enqueue VRRs for the aggressor's immediate
// neighbours.
type PARAPlugin struct {
	// P is the per-activation refresh probability.
	P   float64
	src *rand.PCG // kept alongside rng: checkpoints marshal the PCG state
	rng *rand.Rand
	vrrIssuer

	acts, triggers float64
}

// NewPARAPlugin sizes PARA for the threshold: P = 10/threshold makes the
// chance of a victim surviving `threshold` activations without a refresh
// (1-P)^threshold ≈ e^-10 ≈ 5e-5. Note the Half-Double irony: the
// stronger P is, the more middle-row refreshes the mitigation itself
// issues on behalf of a distance-2 attacker.
func NewPARAPlugin(threshold int, seed uint64) *PARAPlugin {
	src := rand.NewPCG(seed, 0xAA)
	return &PARAPlugin{P: 10.0 / float64(threshold), src: src, rng: rand.New(src)}
}

// Name implements Plugin.
func (p *PARAPlugin) Name() string { return "para" }

// OnCommand implements Plugin.
func (p *PARAPlugin) OnCommand(cmd Command, rank, bank, row int, cycle int64) {
	if cmd != CmdACT {
		return
	}
	p.acts++
	if p.rng.Float64() < p.P {
		p.triggers++
		p.vrr(rank, bank, row-1)
		p.vrr(rank, bank, row+1)
	}
}

// DrainStats implements Plugin.
func (p *PARAPlugin) DrainStats() PluginStats {
	s := PluginStats{"acts": p.acts, "triggers": p.triggers, "vrrs": p.vrrs}
	p.acts, p.triggers, p.vrrs = 0, 0, 0
	return s
}

// ---------------------------------------------------------------------------
// TRR
// ---------------------------------------------------------------------------

type trrBank struct {
	counts        map[int]int
	lastRefreshed map[int]int
	refIndex      int
}

// TRRPlugin models in-DRAM Targeted Row Refresh the way deployed samplers
// work (and the way TRRespass characterized them): per-bank activation
// counts within the current REF interval; on each REF the neighbours of
// the hottest rows of that rank's banks get VRRs, then the samplers
// clear. The sampler's tiny capacity and per-interval horizon are exactly
// what TRRespass exploits — a stream of dummy rows out-counts the true
// aggressors in every interval, so the victims' neighbours are never the
// ones refreshed.
type TRRPlugin struct {
	// TableSize is the sampler capacity (real devices track only a
	// handful of rows).
	TableSize int
	// VictimsPerREF is how many tracked rows get their neighbours
	// refreshed per REF command.
	VictimsPerREF int
	// RefreshCooldownREFs rate-limits per-row victim refreshes: a row
	// refreshed within this many REF commands is skipped. Without the
	// limit the mitigation would re-activate the same victims thousands
	// of times per window and hammer *their* neighbours itself.
	RefreshCooldownREFs int
	// EligibleMin is the sampler's per-interval activation-count bar: a
	// row is considered an aggressor only if it was activated at least
	// this many times within the REF interval. TRRespass's dummy-row
	// calibration keeps the true aggressors just under this bar while
	// the dummies stay above it.
	EligibleMin int

	banks map[bankKey]*trrBank
	vrrIssuer

	acts float64
}

// NewTRRPlugin builds per-bank TRR samplers with the given capacity.
func NewTRRPlugin(tableSize int) *TRRPlugin {
	return &TRRPlugin{
		TableSize:           tableSize,
		VictimsPerREF:       2,
		RefreshCooldownREFs: 8,
		EligibleMin:         8,
		banks:               make(map[bankKey]*trrBank),
	}
}

// Name implements Plugin.
func (t *TRRPlugin) Name() string { return "trr" }

func (t *TRRPlugin) bank(k bankKey) *trrBank {
	b, ok := t.banks[k]
	if !ok {
		b = &trrBank{counts: make(map[int]int), lastRefreshed: make(map[int]int)}
		t.banks[k] = b
	}
	return b
}

// OnCommand implements Plugin.
func (t *TRRPlugin) OnCommand(cmd Command, rank, bank, row int, cycle int64) {
	switch cmd {
	case CmdACT:
		t.acts++
		t.sample(t.bank(bankKey{rank, bank}), row)
	case CmdREF:
		for _, k := range sortedBankKeys(t.banks) {
			if k.rank == rank {
				t.onREF(k, t.banks[k])
			}
		}
	}
}

// sample counts rows seen this REF interval; on overflow it evicts the
// coldest entry, ties breaking toward the smaller row so eviction does not
// depend on map iteration order.
func (t *TRRPlugin) sample(b *trrBank, row int) {
	if _, ok := b.counts[row]; ok {
		b.counts[row]++
		return
	}
	if len(b.counts) >= t.TableSize {
		minRow, minCount := -1, int(^uint(0)>>1)
		for r, c := range b.counts {
			if c < minCount || (c == minCount && r < minRow) {
				minRow, minCount = r, c
			}
		}
		delete(b.counts, minRow)
	}
	b.counts[row] = 1
}

// onREF VRRs the neighbours of the hottest-this-interval rows, then
// starts a fresh interval.
func (t *TRRPlugin) onREF(k bankKey, b *trrBank) {
	if len(b.counts) == 0 {
		return
	}
	hot := make([]int, 0, len(b.counts))
	for r, c := range b.counts {
		if c >= t.EligibleMin {
			hot = append(hot, r)
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if b.counts[hot[i]] != b.counts[hot[j]] {
			return b.counts[hot[i]] > b.counts[hot[j]]
		}
		return hot[i] < hot[j]
	})
	b.refIndex++
	for _, r := range hot[:min(t.VictimsPerREF, len(hot))] {
		for _, victim := range [2]int{r - 1, r + 1} {
			if last, ok := b.lastRefreshed[victim]; ok && b.refIndex-last < t.RefreshCooldownREFs {
				continue
			}
			t.vrr(k.rank, k.bank, victim)
			b.lastRefreshed[victim] = b.refIndex
		}
	}
	b.counts = make(map[int]int)
}

// DrainStats implements Plugin.
func (t *TRRPlugin) DrainStats() PluginStats {
	s := PluginStats{"acts": t.acts, "vrrs": t.vrrs}
	t.acts, t.vrrs = 0, 0
	return s
}

// ---------------------------------------------------------------------------
// Graphene
// ---------------------------------------------------------------------------

type grapheneBank struct {
	counts map[int]int
	spill  int
}

// GraphenePlugin is the Misra–Gries tracker (Park et al., MICRO'20) as a
// controller plugin: per-bank exact frequent-element counting guarantees
// any row activated more than the trigger count is caught, defeating
// capacity-eviction attacks like TRRespass — but a row crossing the
// trigger gets only its immediate neighbours VRR'd, which Half-Double
// turns into a weapon. Tables reset every refresh window, counted as
// REFsPerWindow REF commands per rank.
type GraphenePlugin struct {
	Trigger  int
	Counters int

	banks map[bankKey]*grapheneBank
	refs  map[int]int // per-rank REF count, for window rotation
	vrrIssuer

	acts, triggers float64
}

// NewGraphenePlugin sizes the tracker for the design threshold: trigger at
// half of it, with enough counters (the window's activation budget over
// the trigger) that decrement-evictions cannot hide a real aggressor
// within one window.
func NewGraphenePlugin(designThreshold int) *GraphenePlugin {
	trigger := max(designThreshold/2, 1)
	return &GraphenePlugin{
		Trigger:  trigger,
		Counters: ActsPerWindow/trigger + 1,
		banks:    make(map[bankKey]*grapheneBank),
		refs:     make(map[int]int),
	}
}

// Name implements Plugin.
func (g *GraphenePlugin) Name() string { return "graphene" }

// OnCommand implements Plugin.
func (g *GraphenePlugin) OnCommand(cmd Command, rank, bank, row int, cycle int64) {
	switch cmd {
	case CmdACT:
		g.acts++
		g.track(bankKey{rank, bank}, row)
	case CmdREF:
		g.refs[rank]++
		if g.refs[rank]%REFsPerWindow == 0 {
			for k, b := range g.banks {
				if k.rank == rank {
					b.counts = make(map[int]int)
					b.spill = 0
				}
			}
		}
	}
}

// track is the Misra–Gries update plus the threshold trigger.
func (g *GraphenePlugin) track(k bankKey, row int) {
	b, ok := g.banks[k]
	if !ok {
		b = &grapheneBank{counts: make(map[int]int)}
		g.banks[k] = b
	}
	if _, ok := b.counts[row]; ok {
		b.counts[row]++
	} else if len(b.counts) < g.Counters {
		b.counts[row] = b.spill + 1
	} else {
		b.spill++
		for r, c := range b.counts {
			if c <= b.spill {
				delete(b.counts, r)
			}
		}
	}
	if c, ok := b.counts[row]; ok && c-b.spill >= g.Trigger {
		g.triggers++
		g.vrr(k.rank, k.bank, row-1)
		g.vrr(k.rank, k.bank, row+1)
		b.counts[row] = b.spill
	}
}

// DrainStats implements Plugin.
func (g *GraphenePlugin) DrainStats() PluginStats {
	s := PluginStats{"acts": g.acts, "triggers": g.triggers, "vrrs": g.vrrs}
	g.acts, g.triggers, g.vrrs = 0, 0, 0
	return s
}

// ---------------------------------------------------------------------------
// BlockHammer
// ---------------------------------------------------------------------------

// BlockHammerPlugin is BlockHammer (Yağlıkçı et al., HPCA 2021), which
// Section VIII of the SafeGuard paper discusses, as a controller plugin:
// per-bank counting Bloom filters track activations within the refresh
// window, and rows over the per-window cap are denied further ACTs via
// the ActGate — in the controller the throttling shows up as real
// queueing delay, in payload.RunAttack as a skipped activation slot.
// BlockHammer issues no victim refreshes, so Half-Double cannot turn it
// against its victims.
//
// It has the two weaknesses the paper calls out: it must be sized for a
// particular RH-Threshold (a module with a lower threshold than designed
// for still flips bits), and blacklisted-but-benign hot rows suffer
// severe added latency.
type BlockHammerPlugin struct {
	// DesignThreshold is the RH-Threshold the filter caps were sized for.
	DesignThreshold int

	actCap  uint32
	filters map[bankKey]*bloom.Counting
	refs    map[int]int

	acts, throttled float64
}

// NewBlockHammerPlugin sizes the mitigation for a design threshold. The
// per-row cap is just under half the threshold: a victim's disturbance
// sums over both its neighbours (double-sided hammering), so each
// aggressor must individually stay below T/2 for the sum to stay below T.
func NewBlockHammerPlugin(designThreshold int) *BlockHammerPlugin {
	return &BlockHammerPlugin{
		DesignThreshold: designThreshold,
		actCap:          uint32(max(designThreshold/2-1, 1)),
		filters:         make(map[bankKey]*bloom.Counting),
		refs:            make(map[int]int),
	}
}

// Name implements Plugin.
func (bh *BlockHammerPlugin) Name() string { return "blockhammer" }

func (bh *BlockHammerPlugin) filter(k bankKey) *bloom.Counting {
	f, ok := bh.filters[k]
	if !ok {
		f = bloom.NewCounting(1<<14, 4, 0xB10C)
		bh.filters[k] = f
	}
	return f
}

// AllowAct implements ActGate: deny ACTs to rows at the per-window cap.
// The Bloom estimate never underestimates, so the cap holds even under
// collisions.
func (bh *BlockHammerPlugin) AllowAct(rank, bank, row int, cycle int64) bool {
	if bh.filter(bankKey{rank, bank}).Estimate(uint64(row)) >= bh.actCap {
		bh.throttled++
		return false
	}
	return true
}

// OnCommand implements Plugin.
func (bh *BlockHammerPlugin) OnCommand(cmd Command, rank, bank, row int, cycle int64) {
	switch cmd {
	case CmdACT:
		bh.acts++
		bh.filter(bankKey{rank, bank}).Insert(uint64(row))
	case CmdREF:
		bh.refs[rank]++
		if bh.refs[rank]%REFsPerWindow == 0 {
			for k, f := range bh.filters {
				if k.rank == rank {
					f.Clear()
				}
			}
		}
	}
}

// DrainStats implements Plugin.
func (bh *BlockHammerPlugin) DrainStats() PluginStats {
	s := PluginStats{"acts": bh.acts, "throttled": bh.throttled}
	bh.acts, bh.throttled = 0, 0
	return s
}
