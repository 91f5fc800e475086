package memctrl

import (
	"fmt"
	"testing"

	"safeguard/internal/dram"
)

// recorder logs every dispatched command with a plugin identity, so
// dispatch-order tests can interleave multiple instances.
type recorder struct {
	id  string
	log *[]string
}

func (r *recorder) Name() string { return "recorder-" + r.id }
func (r *recorder) OnCommand(cmd Command, rank, bank, row int, cycle int64) {
	*r.log = append(*r.log, fmt.Sprintf("%s:%v@%d,%d,%d", r.id, cmd, rank, bank, row))
}
func (r *recorder) DrainStats() PluginStats { return nil }

func newPluggedController() *Controller {
	return New(dram.Table2Geometry, dram.DDR4_3200())
}

func runUntilIdle(t *testing.T, c *Controller, maxCycles int64) {
	t.Helper()
	start := c.Now()
	for !c.Idle() {
		if c.Now()-start > maxCycles {
			t.Fatalf("controller not idle after %d cycles", maxCycles)
		}
		c.Tick()
	}
}

func TestCommandStrings(t *testing.T) {
	t.Parallel()
	want := map[Command]string{CmdACT: "ACT", CmdRD: "RD", CmdWR: "WR", CmdREF: "REF", CmdVRR: "VRR"}
	for cmd, name := range want {
		if cmd.String() != name {
			t.Fatalf("Command(%d).String() = %q, want %q", cmd, cmd.String(), name)
		}
	}
	if Command(99).String() != "unknown" {
		t.Fatal("out-of-range command must stringify as unknown")
	}
}

// TestPluginDispatchOrdering attaches two recorders and checks that every
// command reaches both, in attach order, and that the per-command stream
// is the expected ACT-then-RD sequence for a cold read.
func TestPluginDispatchOrdering(t *testing.T) {
	t.Parallel()
	c := newPluggedController()
	var log []string
	c.AttachPlugin(&recorder{id: "A", log: &log})
	c.AttachPlugin(&recorder{id: "B", log: &log})
	m := dram.NewMapper(dram.Table2Geometry)
	c.EnqueueRead(m.Encode(dram.Coord{Rank: 0, Bank: 3, Row: 17, Col: 0}), func(int64) {})
	runUntilIdle(t, c, 1000)

	want := []string{
		"A:ACT@0,3,17", "B:ACT@0,3,17",
		"A:RD@0,3,17", "B:RD@0,3,17",
	}
	if len(log) != len(want) {
		t.Fatalf("dispatch log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("dispatch[%d] = %q, want %q (full log %v)", i, log[i], want[i], log)
		}
	}
}

func TestPluginSeesWritesAndRefreshes(t *testing.T) {
	t.Parallel()
	c := newPluggedController()
	var log []string
	c.AttachPlugin(&recorder{id: "A", log: &log})
	m := dram.NewMapper(dram.Table2Geometry)
	c.EnqueueWrite(m.Encode(dram.Coord{Rank: 1, Bank: 2, Row: 9, Col: 0}))
	runUntilIdle(t, c, 1000)
	var sawACT, sawWR bool
	for _, e := range log {
		switch e {
		case "A:ACT@1,2,9":
			sawACT = true
		case "A:WR@1,2,9":
			sawWR = true
		}
	}
	if !sawACT || !sawWR {
		t.Fatalf("write path dispatch incomplete: %v", log)
	}

	log = log[:0]
	for i := 0; i < dram.DDR4_3200().TREFI+10; i++ {
		c.Tick()
	}
	var refs int
	for _, e := range log {
		if e == "A:REF@0,-1,-1" || e == "A:REF@1,-1,-1" {
			refs++
		}
	}
	if refs == 0 {
		t.Fatal("no REF dispatched within one tREFI")
	}
}

// TestVRRHonorsBankTiming enqueues two VRRs to one bank: the second must
// wait out the first's tRAS+tRP bank occupancy.
func TestVRRHonorsBankTiming(t *testing.T) {
	t.Parallel()
	c := newPluggedController()
	var log []string
	c.AttachPlugin(&recorder{id: "A", log: &log})
	var issued []int64
	c.AttachPlugin(pluginFunc(func(cmd Command, rank, bank, row int, cycle int64) {
		if cmd == CmdVRR {
			issued = append(issued, cycle)
		}
	}))
	if !c.EnqueueVRR(0, 0, 100) || !c.EnqueueVRR(0, 0, 200) {
		t.Fatal("VRR enqueue rejected")
	}
	runUntilIdle(t, c, 10_000)
	if len(issued) != 2 {
		t.Fatalf("issued %d VRRs, want 2", len(issued))
	}
	tm := dram.DDR4_3200()
	if gap := issued[1] - issued[0]; gap < int64(tm.TRAS+tm.TRP) {
		t.Fatalf("second VRR after %d cycles, want >= tRAS+tRP = %d", gap, tm.TRAS+tm.TRP)
	}
	if c.Stats.VRRs != 2 {
		t.Fatalf("Stats.VRRs = %d, want 2", c.Stats.VRRs)
	}
}

// TestVRRClosesOpenRow checks a VRR to a bank holding an open row first
// precharges it: the victim refresh can never target an open row.
func TestVRRClosesOpenRow(t *testing.T) {
	t.Parallel()
	c := newPluggedController()
	var vrrAt int64
	c.AttachPlugin(pluginFunc(func(cmd Command, rank, bank, row int, cycle int64) {
		if cmd == CmdVRR {
			vrrAt = cycle
		}
	}))
	m := dram.NewMapper(dram.Table2Geometry)
	done := false
	c.EnqueueRead(m.Encode(dram.Coord{Rank: 0, Bank: 0, Row: 7, Col: 0}), func(int64) { done = true })
	for !done {
		c.Tick()
	}
	// Row 7 is now open in (0,0); ask for a VRR there.
	actAt := c.Now()
	c.EnqueueVRR(0, 0, 7)
	runUntilIdle(t, c, 10_000)
	if vrrAt == 0 {
		t.Fatal("VRR never issued")
	}
	// The precharge had to wait for preReadyAt and pay tRP before the ACT.
	if vrrAt <= actAt {
		t.Fatalf("VRR at %d did not wait for the open row (requested at %d)", vrrAt, actAt)
	}
}

func TestVRRRejectsBadCoordinates(t *testing.T) {
	t.Parallel()
	c := newPluggedController()
	cases := [][3]int{
		{-1, 0, 0}, {2, 0, 0}, {0, -1, 0}, {0, 16, 0}, {0, 0, -1}, {0, 0, 65536},
	}
	for _, k := range cases {
		if c.EnqueueVRR(k[0], k[1], k[2]) {
			t.Fatalf("EnqueueVRR(%v) accepted out-of-range coordinates", k)
		}
	}
	if c.PendingVRRs() != 0 {
		t.Fatal("rejected VRRs must not queue")
	}
}

func TestVRRQueueOverflowDrops(t *testing.T) {
	t.Parallel()
	c := newPluggedController()
	for i := 0; i < vrrQueueSize; i++ {
		if !c.EnqueueVRR(0, i%16, i) {
			t.Fatalf("enqueue %d rejected below capacity", i)
		}
	}
	if c.EnqueueVRR(0, 0, 9999) {
		t.Fatal("enqueue beyond capacity must report false")
	}
	if c.Stats.VRRDrops != 1 {
		t.Fatalf("Stats.VRRDrops = %d, want 1", c.Stats.VRRDrops)
	}
}

// TestActGateThrottlesRow blocks ACTs to one row and checks the request
// stalls while another bank's traffic proceeds.
func TestActGateThrottlesRow(t *testing.T) {
	t.Parallel()
	c := newPluggedController()
	blockedRow := 42
	c.AttachPlugin(&gatePlugin{deny: func(rank, bank, row int) bool { return row == blockedRow }})
	m := dram.NewMapper(dram.Table2Geometry)
	blockedDone, otherDone := false, false
	c.EnqueueRead(m.Encode(dram.Coord{Rank: 0, Bank: 0, Row: blockedRow, Col: 0}), func(int64) { blockedDone = true })
	c.EnqueueRead(m.Encode(dram.Coord{Rank: 0, Bank: 5, Row: 7, Col: 0}), func(int64) { otherDone = true })
	for i := 0; i < 2000; i++ {
		c.Tick()
	}
	if blockedDone {
		t.Fatal("gated row completed despite denial")
	}
	if !otherDone {
		t.Fatal("ungated bank starved by an unrelated gate denial")
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	t.Parallel()
	for _, name := range MitigationNames() {
		p, err := NewMitigationPlugin(name, 4800, 1)
		if err != nil {
			t.Fatalf("registry name %q failed to construct: %v", name, err)
		}
		if name == "none" {
			if p != nil {
				t.Fatal("none must resolve to a nil plugin")
			}
			continue
		}
		if p == nil || p.Name() != name {
			t.Fatalf("plugin for %q reports name %v", name, p)
		}
	}
	if _, err := NewMitigationPlugin("definitely-not-a-mitigation", 4800, 1); err == nil {
		t.Fatal("unknown mitigation name must error")
	}
}

func TestAttachNilPluginIsNoop(t *testing.T) {
	t.Parallel()
	c := newPluggedController()
	c.AttachPlugin(nil)
	if len(c.Plugins()) != 0 {
		t.Fatal("nil plugin attached")
	}
	if got := c.DrainPluginStats(); got != nil {
		t.Fatalf("DrainPluginStats with no plugins = %v, want nil", got)
	}
}

// pluginFunc adapts a function to the Plugin interface for tests.
type pluginFunc func(cmd Command, rank, bank, row int, cycle int64)

func (f pluginFunc) Name() string { return "func" }
func (f pluginFunc) OnCommand(cmd Command, rank, bank, row int, cycle int64) {
	f(cmd, rank, bank, row, cycle)
}
func (f pluginFunc) DrainStats() PluginStats {
	return nil
}

// gatePlugin denies ACTs per the deny predicate.
type gatePlugin struct {
	deny func(rank, bank, row int) bool
}

func (g *gatePlugin) Name() string                                            { return "gate" }
func (g *gatePlugin) OnCommand(cmd Command, rank, bank, row int, cycle int64) {}
func (g *gatePlugin) DrainStats() PluginStats                                 { return nil }
func (g *gatePlugin) AllowAct(rank, bank, row int, cycle int64) bool {
	return !g.deny(rank, bank, row)
}
