// Controller plugins: the extension point that lets Row-Hammer defenses,
// tracers, and metrics observe the controller's real command stream — the
// Ramulator2-style architecture where mitigations live *inside* the memory
// controller instead of a hand-rolled experiment loop.
//
// A plugin sees every DRAM command the controller issues (ACT, RD, WR, REF)
// plus the VRR (victim-row refresh) commands that plugins themselves
// enqueue back into the controller via the VRRSink. VRRs are scheduled
// like any other bank operation: they respect tRRD/tFAW/tRFC and bank
// precharge state, so a mitigation's refresh traffic costs real time.
package memctrl

// Command is the class of DRAM command a plugin observes.
type Command uint8

// The command classes dispatched to plugins.
const (
	// CmdACT is a row activation (issued for a row miss).
	CmdACT Command = iota
	// CmdRD is a column read.
	CmdRD
	// CmdWR is a column write.
	CmdWR
	// CmdREF is a periodic per-rank auto-refresh; bank and row are -1.
	CmdREF
	// CmdVRR is a victim-row refresh issued from the controller's VRR
	// queue on behalf of a mitigation plugin.
	CmdVRR
)

// String names the command class.
func (c Command) String() string {
	switch c {
	case CmdACT:
		return "ACT"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdREF:
		return "REF"
	case CmdVRR:
		return "VRR"
	default:
		return "unknown"
	}
}

// PluginStats is a drained snapshot of a plugin's counters.
type PluginStats map[string]float64

// Plugin observes the controller's command stream. Plugins are invoked in
// attach order, synchronously, on the cycle each command issues.
type Plugin interface {
	// Name identifies the plugin (registry name for mitigations).
	Name() string
	// OnCommand fires after the controller issues cmd at the given cycle.
	// REF is rank-scoped: bank and row are -1.
	OnCommand(cmd Command, rank, bank, row int, cycle int64)
	// DrainStats returns the plugin's counters and resets them.
	DrainStats() PluginStats
}

// VRRSink accepts victim-row refresh requests from plugins. The
// Controller implements it; EnqueueVRR reports false when the request was
// dropped (queue full or row out of range).
type VRRSink interface {
	EnqueueVRR(rank, bank, row int) bool
}

// SinkBinder is implemented by plugins that issue VRRs; AttachPlugin
// binds the controller to them automatically.
type SinkBinder interface {
	BindSink(VRRSink)
}

// ActGate is implemented by plugins that can deny activations
// (BlockHammer-style throttling). A denied ACT leaves the request queued:
// the command slot passes to younger requests and the row retries on later
// cycles, modeling the added latency.
type ActGate interface {
	AllowAct(rank, bank, row int, cycle int64) bool
}

// vrrQueueSize bounds the controller's pending victim-row refreshes. A
// burst larger than this (TRR refreshing many banks on one REF) drops the
// excess, which is safe for mitigations: a dropped VRR only delays
// protection, and Stats.VRRDrops makes it visible.
const vrrQueueSize = 256

type vrrReq struct {
	rank, bank, row int
}

// AttachPlugin registers a plugin for command dispatch. Plugins
// implementing SinkBinder are bound to the controller's VRR queue;
// plugins implementing ActGate join the activation gate chain.
func (c *Controller) AttachPlugin(p Plugin) {
	if p == nil {
		return
	}
	c.plugins = append(c.plugins, p)
	if b, ok := p.(SinkBinder); ok {
		b.BindSink(c)
	}
	if g, ok := p.(ActGate); ok {
		c.gates = append(c.gates, g)
	}
}

// Plugins returns the attached plugins in dispatch order.
func (c *Controller) Plugins() []Plugin { return c.plugins }

// DrainPluginStats drains every attached plugin's counters, keyed by
// plugin name.
func (c *Controller) DrainPluginStats() map[string]PluginStats {
	if len(c.plugins) == 0 {
		return nil
	}
	out := make(map[string]PluginStats, len(c.plugins))
	for _, p := range c.plugins {
		out[p.Name()] = p.DrainStats()
	}
	return out
}

// EnqueueVRR implements VRRSink: queue a victim-row refresh for (rank,
// bank, row). Out-of-range coordinates and queue overflow drop the
// request and return false.
func (c *Controller) EnqueueVRR(rank, bank, row int) bool {
	if rank < 0 || rank >= len(c.banks) || bank < 0 || bank >= len(c.banks[rank]) ||
		row < 0 || row >= c.geom.RowsPerBank {
		return false
	}
	if len(c.vrrQ) >= vrrQueueSize {
		c.Stats.VRRDrops++
		c.tel.vrrDrops.Inc()
		return false
	}
	c.vrrQ = append(c.vrrQ, vrrReq{rank: rank, bank: bank, row: row})
	return true
}

// PendingVRRs returns the VRR-queue depth.
func (c *Controller) PendingVRRs() int { return len(c.vrrQ) }

// dispatch notifies every plugin of an issued command.
func (c *Controller) dispatch(cmd Command, rank, bank, row int) {
	c.onDispatch(cmd, rank, bank, row)
	for _, p := range c.plugins {
		p.OnCommand(cmd, rank, bank, row, c.now)
	}
}

// allowAct consults the activation gates; any denial blocks the ACT this
// cycle.
func (c *Controller) allowAct(rank, bank, row int) bool {
	for _, g := range c.gates {
		if !g.AllowAct(rank, bank, row, c.now) {
			c.lastDenied = denialRecord{rank: rank, bank: bank, row: row, at: c.now}
			c.onActDenied(rank, bank, row)
			return false
		}
	}
	return true
}

// hasPendingVRR reports whether a victim-row refresh is queued for the
// bank. Normal traffic to that bank yields until the VRR drains —
// mitigation refreshes take priority, otherwise a saturated row-hit
// stream would starve them forever.
func (c *Controller) hasPendingVRR(rank, bank int) bool {
	for _, v := range c.vrrQ {
		if v.rank == rank && v.bank == bank {
			return true
		}
	}
	return false
}

// issueVRR tries to issue (or make progress toward) one queued victim-row
// refresh. A VRR is modeled as an activation of the victim row followed
// by an internal precharge: it consumes an ACT slot (tRRD/tFAW apply) and
// occupies the bank for tRAS+tRP, ending with the bank closed. Returns
// true when it consumed this cycle's command slot.
func (c *Controller) issueVRR() bool {
	for i := 0; i < len(c.vrrQ); i++ {
		v := c.vrrQ[i]
		bank := &c.banks[v.rank][v.bank]
		rank := &c.ranks[v.rank]
		if bank.openRow != -1 {
			// The bank must close its open row first.
			if c.now >= bank.preReadyAt {
				c.precharge(bank)
				return true
			}
			continue
		}
		if !c.canActivate(bank, rank) {
			continue
		}
		rank.lastActAt = c.now
		rank.actWindow[rank.actWindowPos] = c.now
		rank.actWindowPos = (rank.actWindowPos + 1) & 3
		bank.actReadyAt = c.now + int64(c.tm.TRAS) + int64(c.tm.TRP)
		c.vrrQ = append(c.vrrQ[:i], c.vrrQ[i+1:]...)
		c.Stats.VRRs++
		c.dispatch(CmdVRR, v.rank, v.bank, v.row)
		return true
	}
	return false
}
