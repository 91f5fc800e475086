// The event tracer: a bounded ring buffer of cycle-stamped, typed events.
// Producers (the controller's command dispatch, the protected-memory
// decode path, the response engine) emit fixed-size Event values; the ring
// never allocates after construction, so tracing adds no GC pressure to
// simulation hot loops, and a nil *Tracer is a free no-op.
package telemetry

import (
	"fmt"
	"sync"
)

// EventKind classifies one traced event.
type EventKind uint8

// The event taxonomy (see DESIGN.md "Telemetry"). Controller-level kinds
// mirror the DRAM command classes; datapath-level kinds mirror decode and
// response outcomes.
const (
	// EvACT is a row activation issued by the controller.
	EvACT EventKind = iota
	// EvRD is a column read issued by the controller.
	EvRD
	// EvWR is a column write issued by the controller.
	EvWR
	// EvREF is a periodic per-rank auto-refresh (bank/row are -1).
	EvREF
	// EvVRR is a victim-row refresh issued from the controller's VRR queue.
	EvVRR
	// EvActDenied is an activation denied by an ActGate plugin
	// (BlockHammer-style throttling or a quarantine gate).
	EvActDenied
	// EvDecode is one protected-memory read decode; Arg is the
	// ecc.Status (0=ok 1=corrected 2=due).
	EvDecode
	// EvReread is a response-engine re-read through the verify path.
	EvReread
	// EvScrub is a known-good rewrite over a faulty line.
	EvScrub
	// EvRetire is a row retirement; Arg is 1 when it succeeded.
	EvRetire
	// EvQuarantine is the response engine's final escalation.
	EvQuarantine
	// EvResponseStep is one recorded response.Engine step; Arg is the
	// response.StepKind, Aux packs attempt<<1|ok.
	EvResponseStep
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvACT:
		return "ACT"
	case EvRD:
		return "RD"
	case EvWR:
		return "WR"
	case EvREF:
		return "REF"
	case EvVRR:
		return "VRR"
	case EvActDenied:
		return "ACT-DENIED"
	case EvDecode:
		return "DECODE"
	case EvReread:
		return "REREAD"
	case EvScrub:
		return "SCRUB"
	case EvRetire:
		return "RETIRE"
	case EvQuarantine:
		return "QUARANTINE"
	case EvResponseStep:
		return "RESPONSE"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one fixed-size traced occurrence. Unused coordinate fields are
// -1; unused Addr/Arg/Aux are 0.
type Event struct {
	// Cycle is the producer's cycle clock when the event happened.
	Cycle int64
	// Kind classifies the event.
	Kind EventKind
	// Rank, Bank, Row locate controller-level events (-1 when absent).
	Rank, Bank, Row int
	// Addr is the line address for datapath-level events.
	Addr uint64
	// Arg carries kind-specific detail (ecc.Status for EvDecode,
	// response.StepKind for EvResponseStep, success flag for EvRetire).
	Arg int64
	// Aux carries secondary detail (attempt<<1|ok for EvResponseStep).
	Aux int64
}

// String renders one deterministic single-line form of the event — the
// format the -trace files and the event-by-event tests use.
func (e Event) String() string {
	switch e.Kind {
	case EvACT, EvRD, EvWR, EvVRR, EvActDenied:
		return fmt.Sprintf("%d %s rank=%d bank=%d row=%d", e.Cycle, e.Kind, e.Rank, e.Bank, e.Row)
	case EvREF:
		return fmt.Sprintf("%d %s rank=%d", e.Cycle, e.Kind, e.Rank)
	case EvDecode:
		return fmt.Sprintf("%d %s addr=%#x status=%d", e.Cycle, e.Kind, e.Addr, e.Arg)
	case EvReread, EvScrub:
		return fmt.Sprintf("%d %s addr=%#x", e.Cycle, e.Kind, e.Addr)
	case EvRetire:
		return fmt.Sprintf("%d %s row=%d ok=%d", e.Cycle, e.Kind, e.Row, e.Arg)
	case EvQuarantine:
		return fmt.Sprintf("%d %s", e.Cycle, e.Kind)
	case EvResponseStep:
		return fmt.Sprintf("%d %s step=%d addr=%#x row=%d aux=%d", e.Cycle, e.Kind, e.Arg, e.Addr, e.Row, e.Aux)
	default:
		return fmt.Sprintf("%d %s", e.Cycle, e.Kind)
	}
}

// DefaultTraceCapacity bounds -trace ring buffers unless overridden.
const DefaultTraceCapacity = 1 << 16

// Tracer is a bounded ring buffer of events. A nil Tracer discards
// everything for free; an active Tracer is safe for concurrent emitters.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	wrapped bool
	dropped uint64
}

// NewTracer builds a tracer holding the most recent `capacity` events
// (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Emit records one event, evicting the oldest when full; no-op on nil.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.next] = e
		t.next++
		if t.next == cap(t.buf) {
			t.next = 0
		}
		t.wrapped = true
		t.dropped++
	}
	t.mu.Unlock()
}

// Len returns the number of buffered events (0 on nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Dropped returns how many events were evicted by the ring (0 on nil).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns the buffered events oldest-first (nil on a nil tracer).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if t.wrapped {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}
