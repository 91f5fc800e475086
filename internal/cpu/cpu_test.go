package cpu

import (
	"reflect"
	"testing"

	"safeguard/internal/attrib"
	"safeguard/internal/workload"
)

// scriptSource feeds a fixed instruction slice, then NOPs.
type scriptSource struct {
	instrs []workload.Instr
	pos    int
}

func (s *scriptSource) Next() workload.Instr {
	if s.pos < len(s.instrs) {
		s.pos++
		return s.instrs[s.pos-1]
	}
	return workload.Instr{}
}

// fixedMem completes every load synchronously after a fixed latency.
type fixedMem struct {
	core    *Core
	latency int64
	loads   int
	stores  int
}

func (m *fixedMem) Load(addr uint64, at int64, token uint64) {
	m.loads++
	m.core.Deliver(token, at+m.latency)
}

func (m *fixedMem) Store(addr uint64, at int64) bool { m.stores++; return true }

func newFixed(src InstrSource, mem *fixedMem) *Core {
	c := New(src, mem)
	mem.core = c
	return c
}

func run(c *Core, cycles int64) {
	for now := int64(1); now <= cycles; now++ {
		c.Cycle(now)
	}
}

func TestNonMemIPCReachesWidth(t *testing.T) {
	t.Parallel()
	c := newFixed(&scriptSource{}, &fixedMem{latency: 1})
	run(c, 1000)
	ipc := float64(c.Retired) / 1000
	if ipc < 5.5 {
		t.Fatalf("NOP IPC %.2f, want ~6 (width)", ipc)
	}
}

func TestLoadLatencyBoundsIPCWhenSerialized(t *testing.T) {
	t.Parallel()
	// All-dependent loads: every load waits for the previous one, so
	// throughput ≈ 1 load per latency.
	instrs := make([]workload.Instr, 0, 1000)
	for i := 0; i < 1000; i++ {
		instrs = append(instrs, workload.Instr{IsLoad: true, Addr: uint64(i) * 64, DependsOnLoad: true})
	}
	mem := &fixedMem{latency: 50}
	c := newFixed(&scriptSource{instrs: instrs}, mem)
	run(c, 10000)
	// ~10000/50 = 200 loads retired.
	if c.Retired < 150 || c.Retired > 260 {
		t.Fatalf("serialized chase retired %d in 10000 cycles with 50-cycle loads", c.Retired)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	t.Parallel()
	// Independent loads exploit the ROB: with a 224-entry window and
	// 50-cycle loads, many are in flight at once.
	instrs := make([]workload.Instr, 0, 5000)
	for i := 0; i < 5000; i++ {
		instrs = append(instrs, workload.Instr{IsLoad: true, Addr: uint64(i) * 64})
	}
	mem := &fixedMem{latency: 50}
	c := newFixed(&scriptSource{instrs: instrs}, mem)
	run(c, 2000)
	serial := int64(2000 / 50)
	if c.Retired < 20*serial {
		t.Fatalf("independent loads retired %d, want >> %d (MLP)", c.Retired, serial)
	}
}

func TestROBLimitsOutstanding(t *testing.T) {
	t.Parallel()
	// With a never-completing memory, dispatch must stop at the ROB size.
	var loads int
	instrs := make([]workload.Instr, 0, 1000)
	for i := 0; i < 1000; i++ {
		instrs = append(instrs, workload.Instr{IsLoad: true, Addr: uint64(i) * 64})
	}
	c := New(&scriptSource{instrs: instrs}, loadBlocker{&loads})
	run(c, 1000)
	if c.Retired != 0 {
		t.Fatal("nothing should retire with a black-hole memory")
	}
	if loads > c.ROBSize {
		t.Fatalf("%d loads issued, ROB is %d", loads, c.ROBSize)
	}
}

// loadBlocker never completes loads.
type loadBlocker struct{ count *int }

func (b loadBlocker) Load(addr uint64, at int64, token uint64) { *b.count++ }
func (b loadBlocker) Store(addr uint64, at int64) bool         { return true }

func TestStoresDoNotBlockRetirement(t *testing.T) {
	t.Parallel()
	instrs := make([]workload.Instr, 0, 600)
	for i := 0; i < 600; i++ {
		instrs = append(instrs, workload.Instr{IsStore: true, Addr: uint64(i) * 64})
	}
	mem := &fixedMem{latency: 1000}
	c := newFixed(&scriptSource{instrs: instrs}, mem)
	run(c, 300)
	if c.Retired < 600 {
		t.Fatalf("stores retired %d/600 in 300 cycles", c.Retired)
	}
	if mem.stores != 600 {
		t.Fatalf("stores seen by memory: %d", mem.stores)
	}
}

func TestDependentLoadWaitsForProducer(t *testing.T) {
	t.Parallel()
	// load A (100 cycles), dependent load B: B must not start before A
	// completes.
	var starts []int64
	mem := &recordingMem{latency: 100, starts: &starts}
	instrs := []workload.Instr{
		{IsLoad: true, Addr: 0},
		{IsLoad: true, Addr: 64, DependsOnLoad: true},
	}
	c := New(&scriptSource{instrs: instrs}, mem)
	mem.core = c
	run(c, 400)
	if len(starts) != 2 {
		t.Fatalf("expected 2 load starts, got %d", len(starts))
	}
	if starts[1]-starts[0] < 100 {
		t.Fatalf("dependent load started %d cycles after producer, want >= 100", starts[1]-starts[0])
	}
	if c.Retired < 2 {
		t.Fatal("loads did not retire")
	}
}

type recordingMem struct {
	core    *Core
	latency int64
	starts  *[]int64
}

func (m *recordingMem) Load(addr uint64, at int64, token uint64) {
	*m.starts = append(*m.starts, at)
	m.core.Deliver(token, at+m.latency)
}
func (m *recordingMem) Store(addr uint64, at int64) bool { return true }

func TestRetirementIsInOrder(t *testing.T) {
	t.Parallel()
	// A slow load followed by fast NOPs: nothing after the load retires
	// until it completes.
	instrs := []workload.Instr{{IsLoad: true, Addr: 0}}
	for i := 0; i < 100; i++ {
		instrs = append(instrs, workload.Instr{})
	}
	mem := &fixedMem{latency: 200}
	c := newFixed(&scriptSource{instrs: instrs}, mem)
	run(c, 150)
	if c.Retired != 0 {
		t.Fatalf("retired %d before the head load completed", c.Retired)
	}
	run2 := func(from, to int64) {
		for now := from; now <= to; now++ {
			c.Cycle(now)
		}
	}
	run2(151, 300)
	if c.Retired < 100 {
		t.Fatalf("after the load completed only %d retired", c.Retired)
	}
}

func TestCountersTrackMix(t *testing.T) {
	t.Parallel()
	p, _ := workload.ByName("gcc")
	gen := workload.NewGenerator(p, 0, 3)
	mem := &fixedMem{latency: 5}
	c := newFixed(gen, mem)
	run(c, 20000)
	if c.Loads == 0 || c.Stores == 0 {
		t.Fatal("no memory activity recorded")
	}
	loadFrac := float64(c.Loads) / float64(c.Loads+c.Stores)
	wantFrac := p.LoadFrac / (p.LoadFrac + p.StoreFrac)
	if loadFrac < wantFrac-0.05 || loadFrac > wantFrac+0.05 {
		t.Fatalf("load fraction %.3f, want ~%.3f", loadFrac, wantFrac)
	}
}

// delayMem queues completions and delivers them at their due cycle, so
// loads are genuinely in flight between cycles — the state a checkpoint
// must capture.
type delayMem struct {
	core    *Core
	latency int64
	pending []pendingLoad
	refuse  int // refuse the first N stores (exercises stalledStore)
}

type pendingLoad struct {
	token uint64
	due   int64
}

func (m *delayMem) Load(addr uint64, at int64, token uint64) {
	m.pending = append(m.pending, pendingLoad{token: token, due: at + m.latency})
}

func (m *delayMem) Store(addr uint64, at int64) bool {
	if m.refuse > 0 {
		m.refuse--
		return false
	}
	return true
}

func (m *delayMem) tick(now int64) {
	kept := m.pending[:0]
	for _, p := range m.pending {
		if p.due <= now {
			m.core.Deliver(p.token, p.due)
		} else {
			kept = append(kept, p)
		}
	}
	m.pending = kept
}

// chaseSource mixes dependent loads, independent loads, stores, and NOPs
// deterministically — enough variety to populate rob, await, lastLoad,
// and stalledStore.
type chaseSource struct{ n int }

func (s *chaseSource) Next() workload.Instr {
	s.n++
	switch s.n % 7 {
	case 0:
		return workload.Instr{IsLoad: true, Addr: uint64(s.n) * 64, DependsOnLoad: true}
	case 1, 4:
		return workload.Instr{IsLoad: true, Addr: uint64(s.n) * 64}
	case 2:
		return workload.Instr{IsStore: true, Addr: uint64(s.n) * 64}
	default:
		return workload.Instr{}
	}
}

// newDelayCore builds a core over src behind a delayMem that also
// refuses its first three stores.
func newDelayCore(src InstrSource) (*Core, *delayMem) {
	mem := &delayMem{latency: 37, refuse: 3}
	c := New(src, mem)
	mem.core = c
	return c, mem
}

// checkRestoreAt checkpoints a core at the end of cycle cut, restores it
// into a fresh core, and finishes both the restored run and an
// uninterrupted reference to cycle end: the restored core must re-save
// the identical CoreState, and the two runs must end in identical
// counters and identical CoreState. inFlight requires loads in flight
// at the cut.
func checkRestoreAt(t *testing.T, newSrc func() InstrSource, cut, end int64, inFlight bool) {
	t.Helper()
	// Reference run, uninterrupted.
	ref, refMem := newDelayCore(newSrc())
	for now := int64(1); now <= end; now++ {
		refMem.tick(now)
		ref.Cycle(now)
	}

	// Interrupted run: stop at cut, save, restore into a fresh core, and
	// finish there. The source position and in-flight loads carry over.
	a, aMem := newDelayCore(newSrc())
	for now := int64(1); now <= cut; now++ {
		aMem.tick(now)
		a.Cycle(now)
	}
	st, err := a.SaveState(nil)
	if err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	if len(st.Rob) == 0 || (inFlight && len(aMem.pending) == 0) {
		t.Fatalf("checkpoint captured a quiet core (rob %d, in-flight %d) — test needs traffic", len(st.Rob), len(aMem.pending))
	}

	b, bMem := newDelayCore(newSrc())
	b.src = a.src // trace position is owner state, carried alongside
	bMem.pending = append(bMem.pending, aMem.pending...)
	bMem.refuse = aMem.refuse // memory-side state carries over too
	if err := b.RestoreState(st, nil); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if again, err := b.SaveState(nil); err != nil || !reflect.DeepEqual(again, st) {
		t.Fatalf("restored core re-saves a different state (err %v):\nsaved    %+v\nrestored %+v", err, st, again)
	}
	for now := cut + 1; now <= end; now++ {
		bMem.tick(now)
		b.Cycle(now)
	}

	if b.Retired != ref.Retired || b.Loads != ref.Loads || b.Stores != ref.Stores {
		t.Fatalf("restored run diverged: retired %d/%d loads %d/%d stores %d/%d",
			b.Retired, ref.Retired, b.Loads, ref.Loads, b.Stores, ref.Stores)
	}
	refSt, err := ref.SaveState(nil)
	if err != nil {
		t.Fatalf("SaveState(ref): %v", err)
	}
	endSt, err := b.SaveState(nil)
	if err != nil {
		t.Fatalf("SaveState(restored): %v", err)
	}
	if !reflect.DeepEqual(refSt, endSt) {
		t.Fatalf("final states differ:\nref      %+v\nrestored %+v", refSt, endSt)
	}
}

func TestSaveRestoreMidFlightIsBitIdentical(t *testing.T) {
	t.Parallel()
	checkRestoreAt(t, func() InstrSource { return &chaseSource{} }, 500, 1500, true)
}

// phasedSource alternates chaseSource's mix with a NOP run longer than
// the ROB, so the most recent load retires while the ROB stays busy.
type phasedSource struct {
	chase chaseSource
	n     int
}

func (s *phasedSource) Next() workload.Instr {
	s.n++
	if s.n%600 < 300 {
		return s.chase.Next()
	}
	return workload.Instr{}
}

// TestSaveRestoreRingCheckpoints checkpoints at the first cycle where each
// ring-layout case holds — cases a program-order snapshot must hide —
// and requires an identical continuation from each.
func TestSaveRestoreRingCheckpoints(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		// inFlight: the case implies loads in flight at the cut (a
		// retired last load implies none are).
		inFlight bool
		at       func(c *Core) bool
	}{
		// The live window runs off the end of the ring and continues at
		// slot 0.
		{"wrapped", true, func(c *Core) bool { return c.head != 0 && c.head+c.n > len(c.rob) }},
		// The producer for the next dependent load already left the ROB.
		{"last-load-retired", false, func(c *Core) bool { return c.lastLoad == LastLoadRetired && c.n > 0 }},
		// A waiting dependent sits at a lower slot than its producer.
		{"producer-above-dependent", true, func(c *Core) bool {
			for _, s := range c.await {
				if c.rob[s].dep > s {
					return true
				}
			}
			return false
		}},
	}
	newSrc := func() InstrSource { return &phasedSource{} }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, mem := newDelayCore(newSrc())
			cut := int64(-1)
			for now := int64(1); now <= 20000; now++ {
				mem.tick(now)
				c.Cycle(now)
				if tc.at(c) {
					cut = now
					break
				}
			}
			if cut < 0 {
				t.Fatal("case never arose in 20000 cycles")
			}
			checkRestoreAt(t, newSrc, cut, cut+2000, tc.inFlight)
		})
	}
}

func TestRestoreStateRejectsCorruptState(t *testing.T) {
	t.Parallel()
	mem := &fixedMem{latency: 2}
	c := newFixed(&scriptSource{}, mem)
	bad := []CoreState{
		{Rob: make([]EntryState, 300)},                  // exceeds ROB
		{Rob: []EntryState{{Dep: 0}}},                   // self/forward dep
		{Rob: []EntryState{{Dep: -1}}, Await: []int{5}}, // await out of range
		{Rob: []EntryState{{Dep: -1}}, Await: []int{0}}, // await with no dep
		{LastLoad: 7},  // last_load out of range
		{LastLoad: -9}, // invalid sentinel
		{Rob: []EntryState{{Dep: -1, Probe: attrib.ProbeRef{Kind: 99}}}},                              // unknown probe kind
		{Rob: []EntryState{{Dep: -1, Probe: attrib.ProbeRef{Kind: attrib.ProbeRefConst, Comp: 200}}}}, // bad component
		{Rob: []EntryState{{Dep: -1, Seq: 7}, {Dep: -1, Seq: 7}}},                                     // duplicate token
		{Rob: []EntryState{{Dep: -1, Seq: 1}, {Dep: -1, Seq: 1 + 512}}},                               // tokens collide in the routing table
	}
	for i, st := range bad {
		if err := c.RestoreState(st, nil); err == nil {
			t.Errorf("corrupt state %d accepted", i)
		}
	}
}
