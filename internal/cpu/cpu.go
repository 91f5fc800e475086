// Package cpu is the trace-driven out-of-order core model of the paper's
// Table II configuration: 6-wide dispatch/retire, a 224-entry reorder
// buffer, and dependence-aware loads. The model captures the first-order
// behaviour the performance results depend on: memory-level parallelism
// bounded by the ROB window (independent misses overlap), in-order
// retirement stalled by the oldest incomplete instruction, and pointer
// chases serialized on their producer loads — the axis that makes
// `omnetpp` the paper's most latency-sensitive workload.
//
// Every piece of in-flight core state is plain data: a load in flight is
// identified by a monotonically increasing token the memory system hands
// back through Deliver, and a stall probe is an attrib.Prober value the
// owner can serialize. That is what makes a core checkpointable at any
// cycle boundary (SaveState/RestoreState) with bit-identical resumption.
package cpu

import (
	"fmt"

	"safeguard/internal/attrib"
	"safeguard/internal/workload"
)

// MemoryPort is the core's window into the cache hierarchy and memory
// system. Load begins an access at cycle `at`; the memory system must
// call Deliver(token, done) on the issuing core exactly once with the
// data-ready cycle (possibly synchronously for cache hits). Store latency
// is hidden by the store buffer, but the buffer is finite: Store returns
// false when the memory system cannot accept another write-allocate miss,
// and the core must stall dispatch and retry — the backpressure that
// bounds outstanding traffic.
type MemoryPort interface {
	Load(addr uint64, at int64, token uint64)
	Store(addr uint64, at int64) bool
}

// ProbedPort is the optional MemoryPort extension cycle attribution
// uses: LoadProbed behaves exactly like Load but additionally returns a
// stall-cause prober for the access (nil when the memory system cannot
// attribute it). An attributing core prefers LoadProbed; plain ports
// keep working with every stall charged to attrib.CompDRAM.
type ProbedPort interface {
	MemoryPort
	LoadProbed(addr uint64, at int64, token uint64) attrib.Prober
}

// InstrSource produces the core's instruction trace.
type InstrSource interface {
	Next() workload.Instr
}

type robEntry struct {
	// seq is the entry's load token (0 until a load is issued); Deliver
	// routes completions back by it.
	seq        uint64
	done       bool
	completeAt int64
	// dep is the ring slot of the producer load a pointer-chase waits on
	// (noDep otherwise).
	dep  int32
	addr uint64
	load bool
	// probe reports the stall cause of an in-flight load (nil when
	// attribution is off or the port cannot attribute).
	probe attrib.Prober
}

// noDep marks a robEntry that waits on no producer.
const noDep = -1

// Core is one out-of-order core.
type Core struct {
	// ROBSize and Width are the core's configuration, fixed at New: the
	// reorder buffer is a ring of ROBSize entries allocated once.
	ROBSize int
	Width   int

	src InstrSource
	mem MemoryPort

	// rob is the reorder-buffer ring: n live entries starting at slot
	// head, in program order. Dispatch, retirement, and completion
	// routing never allocate.
	rob  []robEntry
	head int
	n    int
	// await holds the ring slots of dependent loads waiting for their
	// producer, in dispatch order (the order they start in).
	await []int32
	// tokSlot routes a load token to its ring slot: tokSlot[token&tokMask].
	// The table has at least 2*ROBSize entries, which makes it
	// collision-free for every token still in the ROB (see Deliver).
	tokSlot []int32
	tokMask uint64
	// lastLoad is the ring slot of the most recently dispatched load (the
	// producer for pointer-chase dependences), or LastLoadNone, or
	// LastLoadRetired once it left the ROB — then only its completion
	// facts (lastDone/lastCompleteAt) survive.
	lastLoad       int32
	lastDone       bool
	lastCompleteAt int64
	// stalledStore holds a store the memory system refused (store-buffer
	// backpressure) while hasStalled is set; dispatch halts until it is
	// accepted.
	stalledStore workload.Instr
	hasStalled   bool
	// seq is the next load token to issue (tokens start at 1 so 0 can
	// mean "no load issued").
	seq uint64

	// Retired counts completed instructions.
	Retired int64
	// Loads/Stores count dispatched memory operations.
	Loads, Stores int64

	// att receives one attrib.Component charge per Cycle call when
	// attached (nil = attribution off, zero cost beyond one nil check).
	att *attrib.CPIStack
	// pmem caches the ProbedPort view of mem (nil when unsupported).
	pmem ProbedPort
}

// New builds a core with the Table II parameters (224-entry ROB, 6-wide).
func New(src InstrSource, mem MemoryPort) *Core {
	const robSize = 224
	tab := 1
	for tab < 2*robSize {
		tab <<= 1
	}
	return &Core{
		ROBSize:  robSize,
		Width:    6,
		src:      src,
		mem:      mem,
		rob:      make([]robEntry, robSize),
		await:    make([]int32, 0, robSize),
		tokSlot:  make([]int32, tab),
		tokMask:  uint64(tab - 1),
		lastLoad: LastLoadNone,
	}
}

// AttachAttrib points the core at a CPI stack: every subsequent Cycle
// call charges exactly one component (the sum-to-total invariant). The
// stack is read between cycles by the owner (snapshots at measurement
// boundaries); nil detaches.
func (c *Core) AttachAttrib(st *attrib.CPIStack) {
	c.att = st
	c.pmem, _ = c.mem.(ProbedPort)
}

// slot returns the ring slot of the i-th oldest ROB entry.
func (c *Core) slot(i int) int {
	s := c.head + i
	if s >= len(c.rob) {
		s -= len(c.rob)
	}
	return s
}

// index is slot's inverse: the program-order position of a ring slot,
// which is live when it is below n.
func (c *Core) index(slot int) int {
	i := slot - c.head
	if i < 0 {
		i += len(c.rob)
	}
	return i
}

// Deliver completes the in-flight load identified by token at cycle done.
// The memory system calls it exactly once per Load/LoadProbed, possibly
// synchronously from within the Load call itself. An unknown token is a
// protocol violation and panics: a load can never complete after its
// entry retired (retirement requires completion first).
//
// Routing is one table lookup. Every token issued after the oldest token
// still in the ROB went to an entry that shared the ROB with that
// token's holder: one of the at most ROBSize-1 entries already there
// when it issued, or one dispatched later (younger, so still present).
// Tokens in the ROB therefore span fewer than 2*ROBSize consecutive
// values and never collide in tokSlot.
func (c *Core) Deliver(token uint64, done int64) {
	s := int(c.tokSlot[token&c.tokMask])
	if e := &c.rob[s]; token != 0 && e.seq == token && c.index(s) < c.n {
		e.done = true
		e.completeAt = done
		return
	}
	panic(fmt.Sprintf("cpu: Deliver(%d) matches no in-flight load", token))
}

// lastLoadPending reports whether the most recent load has not yet
// completed by now — a dependent load dispatched now must wait for it.
func (c *Core) lastLoadPending(now int64) bool {
	switch c.lastLoad {
	case LastLoadNone:
		return false
	case LastLoadRetired:
		return !(c.lastDone && c.lastCompleteAt <= now)
	}
	e := &c.rob[c.lastLoad]
	return !(e.done && e.completeAt <= now)
}

// Cycle advances the core by one CPU cycle.
func (c *Core) Cycle(now int64) {
	// Retire in order, up to Width per cycle. A retired slot keeps its
	// contents until dispatch reuses it, so this cycle's classification
	// and dependent-load checks may still read a producer retired here.
	retired := 0
	for c.n > 0 && retired < c.Width {
		h := &c.rob[c.head]
		if !h.done || h.completeAt > now {
			break
		}
		if int(c.lastLoad) == c.head {
			c.lastLoad = LastLoadRetired
			c.lastDone, c.lastCompleteAt = h.done, h.completeAt
		}
		c.head = c.slot(1)
		c.n--
		c.Retired++
		retired++
	}

	// Attribute this cycle while the ROB still shows why retirement
	// stopped (before dispatch refills it).
	if c.att != nil {
		c.att.Charge(c.classify(now, retired))
	}

	// Start dependent loads whose producers have completed.
	if len(c.await) > 0 {
		kept := c.await[:0]
		for _, s := range c.await {
			e := &c.rob[s]
			if p := &c.rob[e.dep]; p.done && p.completeAt <= now {
				e.dep = noDep
				c.startLoad(int(s), now)
			} else {
				kept = append(kept, s)
			}
		}
		c.await = kept
	}

	// Dispatch up to Width new instructions, first retrying a store the
	// memory system previously refused.
	for d := 0; d < c.Width && c.n < len(c.rob); d++ {
		var in workload.Instr
		if c.hasStalled {
			in = c.stalledStore
		} else {
			in = c.src.Next()
		}
		s := c.slot(c.n)
		switch {
		case in.IsLoad:
			c.Loads++
			// The entry joins the ROB before its load issues: Deliver may
			// fire synchronously (cache hits) and only routes to live
			// entries.
			c.rob[s] = robEntry{addr: in.Addr, load: true, dep: noDep}
			c.n++
			if in.DependsOnLoad && c.lastLoadPending(now) {
				c.rob[s].dep = c.lastLoad
				c.await = append(c.await, int32(s))
			} else {
				c.startLoad(s, now)
			}
			c.lastLoad = int32(s)
			continue
		case in.IsStore:
			if !c.mem.Store(in.Addr, now) {
				c.stalledStore, c.hasStalled = in, true
				return // stall dispatch until the store buffer drains
			}
			c.hasStalled = false
			c.Stores++
		}
		c.rob[s] = robEntry{done: true, completeAt: now + 1, dep: noDep}
		c.n++
	}
}

// skipNever marks a core that can only be woken by a memory completion,
// never by its own state maturing.
const skipNever = int64(1) << 62

// Fallback probes for skip replay, mirroring classify's constant
// branches: a done head with no probe is base issue latency, a pending
// unprobed load is generic DRAM time.
var (
	skipBaseProbe attrib.Probe = attrib.ConstProbe(attrib.CompBase).ProbeStall
	skipDRAMProbe attrib.Probe = attrib.ConstProbe(attrib.CompDRAM).ProbeStall
)

// SkipState reports whether the core is sure to do nothing but charge
// attribution until wakeAt: the ROB is full, so retirement is blocked on
// the head, dispatch (including stalled-store retries, which mutate
// cache state) cannot run, and no waiting dependent load can start.
// Until wakeAt — the earliest cycle retirement or a dependent-load start
// can resume on the core's own state — every Cycle(u) call reduces to
// charging probe(u). Completions arriving from the memory system can
// wake the core earlier; the caller must bound any skip by the memory
// controller's own next event. probe is nil when attribution is off
// (the skipped cycles then need no replay at all).
func (c *Core) SkipState() (ok bool, wakeAt int64, probe attrib.Probe) {
	if c.n < len(c.rob) {
		return false, 0, nil
	}
	wakeAt = skipNever
	h := &c.rob[c.head]
	if h.done {
		wakeAt = h.completeAt
	}
	for _, s := range c.await {
		if p := &c.rob[c.rob[s].dep]; p.done && p.completeAt < wakeAt {
			wakeAt = p.completeAt
		}
	}
	if c.att == nil {
		return true, wakeAt, nil
	}
	// Replicate classify for a full ROB with zero retirement: the head's
	// state is frozen across the skipped span (callbacks only fire at
	// memory-controller events, which bound the span), so the branch can
	// be resolved once and replayed per cycle.
	if h.done {
		if h.probe != nil {
			probe = h.probe.ProbeStall
		} else {
			probe = skipBaseProbe
		}
	} else {
		e := h
		if h.dep != noDep {
			e = &c.rob[h.dep]
		}
		if e.probe != nil {
			probe = e.probe.ProbeStall
		} else {
			probe = skipDRAMProbe
		}
	}
	return true, wakeAt, probe
}

// classify names the component this cycle belongs to. Exactly one call
// per Cycle when attribution is attached; the caller charges the result.
func (c *Core) classify(now int64, retired int) attrib.Component {
	switch {
	case retired == c.Width:
		// Full-width retirement: a maximally productive cycle.
		return attrib.CompBase
	case c.n == 0:
		// Nothing left to retire. If a refused store blocks dispatch the
		// window drained behind store-buffer backpressure; otherwise the
		// front end simply ran dry (counts as base issue).
		if c.hasStalled {
			return attrib.CompROBFull
		}
		return attrib.CompBase
	}
	h := &c.rob[c.head]
	if h.done {
		// Completed but immature head: inside an op's latency tail. A
		// probed load names its phase (DRAM/decode/MAC/...); plain
		// single-cycle ops are ordinary issue latency.
		if h.probe != nil {
			return h.probe.ProbeStall(now)
		}
		return attrib.CompBase
	}
	// Incomplete head. A pointer chase still waiting on its producer
	// charges the producer's stall cause.
	e := h
	if h.dep != noDep {
		e = &c.rob[h.dep]
	}
	if e.probe != nil {
		return e.probe.ProbeStall(now)
	}
	return attrib.CompDRAM
}

func (c *Core) startLoad(s int, now int64) {
	e := &c.rob[s]
	c.seq++
	e.seq = c.seq
	c.tokSlot[c.seq&c.tokMask] = int32(s)
	if c.att != nil && c.pmem != nil {
		e.probe = c.pmem.LoadProbed(e.addr, now, e.seq)
		return
	}
	c.mem.Load(e.addr, now, e.seq)
}
