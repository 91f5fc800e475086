package cpu

import (
	"testing"

	"safeguard/internal/attrib"
	"safeguard/internal/workload"
)

// neverMem accepts loads but never completes them: the core fills its ROB
// and then stalls forever — the steady state the hot-path guard measures.
type neverMem struct{ loads int }

func (m *neverMem) Load(addr uint64, at int64, token uint64) { m.loads++ }
func (m *neverMem) Store(addr uint64, at int64) bool         { return true }

// probedNeverMem is neverMem as a ProbedPort with a shared static probe.
type probedNeverMem struct{ neverMem }

var dramProbe attrib.Prober = attrib.ConstProbe(attrib.CompDRAM)

func (m *probedNeverMem) LoadProbed(addr uint64, at int64, token uint64) attrib.Prober {
	m.Load(addr, at, token)
	return dramProbe
}

// loadSource produces an endless stream of independent loads.
type loadSource struct{ n uint64 }

func (s *loadSource) Next() workload.Instr {
	s.n++
	return workload.Instr{IsLoad: true, Addr: s.n * 64}
}

// fill runs the core until its ROB is full and dispatch has stopped.
func fill(t *testing.T, c *Core) int64 {
	t.Helper()
	now := int64(1)
	for ; now < 1000; now++ {
		c.Cycle(now)
		if c.n == c.ROBSize {
			return now
		}
	}
	t.Fatal("ROB never filled")
	return now
}

// The stalled-core cycle path must stay allocation-free with attribution
// detached — the PR 3 zero-alloc guard extended to the core model. A
// fully stalled Cycle does retire scans, classification, and dispatch
// checks, but allocates nothing.
func TestCycleHotPathZeroAllocsAttribOff(t *testing.T) {
	c := New(&loadSource{}, &neverMem{})
	now := fill(t, c)
	if n := testing.AllocsPerRun(1000, func() {
		now++
		c.Cycle(now)
	}); n != 0 {
		t.Fatalf("stalled Cycle allocates %.1f objects/op with attribution off, want 0", n)
	}
}

// Attribution attached must not add allocations either: Charge is an
// array increment and probes are shared values.
func TestCycleHotPathZeroAllocsAttribOn(t *testing.T) {
	c := New(&loadSource{}, &probedNeverMem{})
	var st attrib.CPIStack
	c.AttachAttrib(&st)
	now := fill(t, c)
	before := st.Total()
	if n := testing.AllocsPerRun(1000, func() {
		now++
		c.Cycle(now)
	}); n != 0 {
		t.Fatalf("stalled Cycle allocates %.1f objects/op with attribution on, want 0", n)
	}
	if st.Total() == before {
		t.Fatal("attribution attached but no cycles charged")
	}
	// Every stalled cycle probed the head load: all charges land on DRAM.
	if st[attrib.CompDRAM] == 0 {
		t.Fatalf("stalled-on-load cycles not charged to dram: %v", st.Map())
	}
}

// classify's full decision table, driven through real Cycle calls.
func TestClassifyComponents(t *testing.T) {
	t.Parallel()
	// Full-width retirement of NOPs is base work.
	{
		c := newFixed(&scriptSource{}, &fixedMem{latency: 1})
		var st attrib.CPIStack
		c.AttachAttrib(&st)
		run(c, 100)
		if st[attrib.CompBase] == 0 || st.Total() != 100 {
			t.Fatalf("NOP stream stack = %v", st.Map())
		}
	}
	// A plain (unprobed) port charges load stalls to DRAM.
	{
		c := New(&loadSource{}, &neverMem{})
		var st attrib.CPIStack
		c.AttachAttrib(&st)
		run(c, 100)
		if st[attrib.CompDRAM] == 0 {
			t.Fatalf("unprobed load stalls = %v", st.Map())
		}
		if st.Total() != 100 {
			t.Fatalf("sum invariant broke: %v", st.Map())
		}
	}
	// Store-buffer backpressure with a drained ROB is rob_full.
	{
		src := &scriptSource{instrs: []workload.Instr{{IsStore: true, Addr: 64}}}
		m := &refusingMem{}
		c := New(src, m)
		m.core = c
		var st attrib.CPIStack
		c.AttachAttrib(&st)
		run(c, 100)
		if st[attrib.CompROBFull] == 0 {
			t.Fatalf("refused store never charged rob_full: %v", st.Map())
		}
	}
}

// Probed in-flight loads round-trip through save/restore: the const probe
// serializes as itself, and the restored core keeps charging the same
// component.
func TestSaveRestoreCarriesProbes(t *testing.T) {
	t.Parallel()
	c := New(&loadSource{}, &probedNeverMem{})
	var st attrib.CPIStack
	c.AttachAttrib(&st)
	fill(t, c)
	saved, err := c.SaveState(nil)
	if err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	foundConst := false
	for _, e := range saved.Rob {
		if e.Probe.Kind == attrib.ProbeRefConst {
			foundConst = true
			if e.Probe.Comp != int(attrib.CompDRAM) {
				t.Fatalf("const probe serialized component %d, want %d", e.Probe.Comp, attrib.CompDRAM)
			}
		}
	}
	if !foundConst {
		t.Fatal("no const probes captured from a probed full ROB")
	}

	c2 := New(&loadSource{}, &probedNeverMem{})
	var st2 attrib.CPIStack
	c2.AttachAttrib(&st2)
	if err := c2.RestoreState(saved, nil); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	run(c2, 50)
	if st2[attrib.CompDRAM] == 0 {
		t.Fatalf("restored probes charge nothing to dram: %v", st2.Map())
	}
}

// refusingMem refuses every store (permanent backpressure).
type refusingMem struct{ core *Core }

func (m *refusingMem) Load(addr uint64, at int64, token uint64) { m.core.Deliver(token, at+1) }
func (m *refusingMem) Store(addr uint64, at int64) bool         { return false }

// asyncMem completes odd tokens synchronously inside Load (cache-hit
// style) and even tokens a fixed latency later from a preallocated FIFO,
// so loads are genuinely in flight between cycles. Every 50th store is
// refused once (store-buffer backpressure). Nothing here allocates, so a
// steady-state allocation is the core's own.
type asyncMem struct {
	core    *Core
	latency int64
	fifo    [512]pendingLoad
	head, n int
	stores  int
	// sync/async count deliveries by path.
	sync, async int
}

func (m *asyncMem) Load(addr uint64, at int64, token uint64) {
	if token%2 == 1 {
		m.sync++
		m.core.Deliver(token, at+2)
		return
	}
	m.fifo[(m.head+m.n)%len(m.fifo)] = pendingLoad{token: token, due: at + m.latency}
	m.n++
}

func (m *asyncMem) Store(addr uint64, at int64) bool {
	m.stores++
	return m.stores%50 != 0
}

// tick delivers every async load due by now (due times are FIFO ordered:
// one fixed latency over increasing issue cycles).
func (m *asyncMem) tick(now int64) {
	for m.n > 0 && m.fifo[m.head].due <= now {
		m.async++
		m.core.Deliver(m.fifo[m.head].token, m.fifo[m.head].due)
		m.head = (m.head + 1) % len(m.fifo)
		m.n--
	}
}

// probedAsyncMem is asyncMem as a ProbedPort with a shared static probe.
type probedAsyncMem struct{ *asyncMem }

func (m probedAsyncMem) LoadProbed(addr uint64, at int64, token uint64) attrib.Prober {
	m.Load(addr, at, token)
	return dramProbe
}

// steadyStateAllocs runs a core over a mixed stream (independent and
// dependent loads, stores, NOPs) until the ROB ring has wrapped, then
// measures allocations per cycle while loads dispatch, deliver (both
// synchronously and asynchronously), and retire every cycle.
func steadyStateAllocs(t *testing.T, attribOn bool) {
	mem := &asyncMem{latency: 40}
	var port MemoryPort = mem
	if attribOn {
		port = probedAsyncMem{mem}
	}
	c := New(&chaseSource{}, port)
	mem.core = c
	var st attrib.CPIStack
	if attribOn {
		c.AttachAttrib(&st)
	}
	now := int64(0)
	step := func() {
		now++
		mem.tick(now)
		c.Cycle(now)
	}
	for i := 0; i < 2000; i++ {
		step()
	}
	retired, syncs, asyncs, stores := c.Retired, mem.sync, mem.async, mem.stores
	// AllocsPerRun truncates to whole allocations per run, so each run is
	// a batch of cycles: one allocation per batch still fails.
	const batch = 1000
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < batch; i++ {
			step()
		}
	}); n != 0 {
		t.Fatalf("steady-state Cycle allocates %.0f objects per %d cycles (attribution %v), want 0", n, batch, attribOn)
	}
	// The measured cycles must have done the work the pin is about: the
	// ring wrapped (more than a ROB's worth retired) and loads completed
	// on both delivery paths under store backpressure.
	if c.Retired-retired < int64(2*c.ROBSize) || mem.sync == syncs || mem.async == asyncs || mem.stores-stores < 100 {
		t.Fatalf("measured cycles too quiet: retired %d, sync %d, async %d, stores %d",
			c.Retired-retired, mem.sync-syncs, mem.async-asyncs, mem.stores-stores)
	}
	if attribOn && st.Total() == 0 {
		t.Fatal("attribution attached but no cycles charged")
	}
}

// The steady-state cycle path must be allocation-free: dispatch writes
// into the fixed ROB ring, Deliver routes through the token table, and a
// refused store is held by value.
func TestCycleHotPathZeroAllocsSteadyAttribOff(t *testing.T) { steadyStateAllocs(t, false) }

// Attribution attached adds probe bookkeeping but no allocation.
func TestCycleHotPathZeroAllocsSteadyAttribOn(t *testing.T) { steadyStateAllocs(t, true) }
