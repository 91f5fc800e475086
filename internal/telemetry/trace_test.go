package telemetry

import (
	"strings"
	"testing"
)

func TestTracerOrderAndStrings(t *testing.T) {
	t.Parallel()
	tr := NewTracer(8)
	tr.Emit(Event{Cycle: 1, Kind: EvACT, Rank: 0, Bank: 2, Row: 7})
	tr.Emit(Event{Cycle: 2, Kind: EvRD, Rank: 0, Bank: 2, Row: 7})
	tr.Emit(Event{Cycle: 3, Kind: EvREF, Rank: 1, Bank: -1, Row: -1})
	tr.Emit(Event{Cycle: 4, Kind: EvDecode, Addr: 0x40, Arg: 2})
	tr.Emit(Event{Cycle: 5, Kind: EvResponseStep, Arg: 0, Addr: 0x40, Row: 1, Aux: 3})
	tr.Emit(Event{Cycle: 6, Kind: EvRetire, Row: 1, Arg: 1})
	tr.Emit(Event{Cycle: 7, Kind: EvQuarantine})

	want := []string{
		"1 ACT rank=0 bank=2 row=7",
		"2 RD rank=0 bank=2 row=7",
		"3 REF rank=1",
		"4 DECODE addr=0x40 status=2",
		"5 RESPONSE step=0 addr=0x40 row=1 aux=3",
		"6 RETIRE row=1 ok=1",
		"7 QUARANTINE",
	}
	events := tr.Events()
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d", len(events), len(want))
	}
	for i, e := range events {
		if e.String() != want[i] {
			t.Fatalf("event %d = %q, want %q", i, e.String(), want[i])
		}
	}
	var sb strings.Builder
	if err := WriteTraceFile(&sb, nil, tr); err != nil {
		t.Fatal(err)
	}
	if body := strings.TrimPrefix(sb.String(), "# safeguard-trace v1\n"); body != strings.Join(want, "\n")+"\n" {
		t.Fatalf("WriteTraceFile mismatch:\n%s", sb.String())
	}
}

func TestTracerRingEviction(t *testing.T) {
	t.Parallel()
	tr := NewTracer(4)
	for i := int64(1); i <= 10; i++ {
		tr.Emit(Event{Cycle: i, Kind: EvRD})
	}
	if tr.Len() != 4 {
		t.Fatalf("ring length = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	events := tr.Events()
	for i, e := range events {
		if e.Cycle != int64(7+i) {
			t.Fatalf("ring kept cycle %d at %d, want %d (oldest-first)", e.Cycle, i, 7+i)
		}
	}
	var sb strings.Builder
	if err := WriteTraceFile(&sb, nil, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(sb.String(), "# dropped 6\n") {
		t.Fatalf("WriteTraceFile missing dropped marker:\n%s", sb.String())
	}
}

func TestTracerNilAndDefaults(t *testing.T) {
	t.Parallel()
	var tr *Tracer
	tr.Emit(Event{Kind: EvACT})
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must be inert")
	}
	if got := NewTracer(0); cap(got.buf) != DefaultTraceCapacity {
		t.Fatalf("default capacity = %d, want %d", cap(got.buf), DefaultTraceCapacity)
	}
}

func TestEventKindStrings(t *testing.T) {
	t.Parallel()
	want := map[EventKind]string{
		EvACT: "ACT", EvRD: "RD", EvWR: "WR", EvREF: "REF", EvVRR: "VRR",
		EvActDenied: "ACT-DENIED", EvDecode: "DECODE", EvReread: "REREAD",
		EvScrub: "SCRUB", EvRetire: "RETIRE", EvQuarantine: "QUARANTINE",
		EvResponseStep: "RESPONSE",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if got := EventKind(200).String(); !strings.Contains(got, "200") {
		t.Fatalf("unknown kind string = %q", got)
	}
}
