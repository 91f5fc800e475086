package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// sampleEvents exercises every serialized event shape.
func sampleEvents() []Event {
	return []Event{
		{Cycle: 1, Kind: EvACT, Rank: 0, Bank: 3, Row: 42},
		{Cycle: 2, Kind: EvRD, Rank: 0, Bank: 3, Row: 42},
		{Cycle: 3, Kind: EvWR, Rank: 1, Bank: 0, Row: 7},
		{Cycle: 4, Kind: EvREF, Rank: 1, Bank: -1, Row: -1},
		{Cycle: 5, Kind: EvVRR, Rank: 0, Bank: 2, Row: 41},
		{Cycle: 6, Kind: EvActDenied, Rank: 0, Bank: 2, Row: 43},
		{Cycle: 7, Kind: EvDecode, Addr: 0xdead40, Arg: 2},
		{Cycle: 8, Kind: EvReread, Addr: 0xdead40},
		{Cycle: 9, Kind: EvScrub, Addr: 0xdead40},
		{Cycle: 10, Kind: EvRetire, Row: 42, Arg: 1},
		{Cycle: 11, Kind: EvQuarantine},
		{Cycle: 12, Kind: EvResponseStep, Addr: 0xdead40, Row: 42, Arg: 1, Aux: 1},
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	tr := NewTracer(64)
	for _, e := range sampleEvents() {
		tr.Emit(e)
	}
	meta := map[string]string{"tool": "sgprof", "scheme": "SafeGuard", "geometry": "2x16"}
	var buf bytes.Buffer
	if err := WriteTraceFile(&buf, meta, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# safeguard-trace v1\n") {
		t.Fatalf("missing version header:\n%s", out)
	}
	// Meta lines are sorted by key.
	if !strings.Contains(out, "# meta geometry=2x16\n# meta scheme=SafeGuard\n# meta tool=sgprof\n") {
		t.Fatalf("meta lines missing or unsorted:\n%s", out)
	}

	tf, err := ReadTraceFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Version != TraceFormatVersion || tf.Dropped != 0 {
		t.Fatalf("header = %+v", tf)
	}
	if len(tf.Meta) != 3 || tf.Meta["tool"] != "sgprof" {
		t.Fatalf("meta = %v", tf.Meta)
	}
	want := sampleEvents()
	if len(tf.Events) != len(want) {
		t.Fatalf("events = %d, want %d", len(tf.Events), len(want))
	}
	for i, e := range tf.Events {
		if e != want[i] {
			t.Errorf("event %d: parsed %+v, want %+v", i, e, want[i])
		}
		if e.String() != want[i].String() {
			t.Errorf("event %d renders %q, want %q", i, e.String(), want[i].String())
		}
	}

	// Writing the parsed events again is byte-identical.
	tr2 := NewTracer(64)
	for _, e := range tf.Events {
		tr2.Emit(e)
	}
	var buf2 bytes.Buffer
	if err := WriteTraceFile(&buf2, tf.Meta, tr2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Fatalf("rewrite differs:\n%s\nvs\n%s", buf2.String(), out)
	}
}

func TestTraceFileDroppedTrailer(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Cycle: int64(i), Kind: EvACT, Rank: 0, Bank: 0, Row: i})
	}
	var buf bytes.Buffer
	if err := WriteTraceFile(&buf, nil, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# dropped 3\n") {
		t.Fatalf("missing dropped trailer:\n%s", buf.String())
	}
	tf, err := ReadTraceFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Dropped != 3 || len(tf.Events) != 2 {
		t.Fatalf("parsed %+v", tf)
	}
}

// traceFileRejects are trace files ReadTraceFile must refuse (also
// FuzzReadTraceFile seeds).
var traceFileRejects = map[string]string{
	"empty":           "",
	"headerless":      "1 ACT rank=0 bank=0 row=1\n",
	"future version":  "# safeguard-trace v2\n",
	"garbage version": "# safeguard-trace vX\n",
	"bad meta":        "# safeguard-trace v1\n# meta noequals\n",
	"duplicate meta":  "# safeguard-trace v1\n# meta tool=a\n# meta tool=b\n",
	"CR in meta":      "# safeguard-trace v1\n# meta tool=a\r\r\n",
	"bad dropped":     "# safeguard-trace v1\n# dropped many\n",
	"unknown kind":    "# safeguard-trace v1\n1 EXPLODE rank=0\n",
	"bad field":       "# safeguard-trace v1\n1 ACT rank=zero bank=0 row=1\n",
	"unknown field":   "# safeguard-trace v1\n1 ACT rank=0 bank=0 row=1 color=red\n",
	"fieldless event": "# safeguard-trace v1\njunk\n",
	"bad cycle":       "# safeguard-trace v1\nx ACT rank=0 bank=0 row=1\n",
	"cut event field": "# safeguard-trace v1\n1 ACT rank\n",
}

func TestReadTraceFileRejects(t *testing.T) {
	for name, body := range traceFileRejects {
		if _, err := ReadTraceFile(strings.NewReader(body)); err == nil {
			t.Errorf("%s: ReadTraceFile accepted %q", name, body)
		}
	}
}

// Unknown comments are tolerated (forward extension), blank lines skipped.
const tolerantTraceFile = "# safeguard-trace v1\n# some future annotation\n\n3 QUARANTINE\n"

func TestReadTraceFileTolerant(t *testing.T) {
	tf, err := ReadTraceFile(strings.NewReader(tolerantTraceFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.Events) != 1 || tf.Events[0].Kind != EvQuarantine {
		t.Fatalf("events = %+v", tf.Events)
	}
}

// Every kind's String form parses back to an identical rendering — the
// inverse property ParseEvent documents.
func TestParseEventInvertsString(t *testing.T) {
	for _, e := range sampleEvents() {
		got, err := ParseEvent(e.String())
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", e.String(), err)
		}
		if got.String() != e.String() {
			t.Fatalf("ParseEvent(%q) renders %q", e.String(), got.String())
		}
		if got != e {
			t.Fatalf("ParseEvent(%q) = %+v, want %+v", e.String(), got, e)
		}
	}
	if _, err := ParseEvent(fmt.Sprintf("%d", 12)); err == nil {
		t.Fatal("ParseEvent accepted a cycle-only line")
	}
}

// A nil tracer still writes a valid, readable header-only file.
func TestWriteTraceFileNilTracer(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceFile(&buf, map[string]string{"tool": "x"}, nil); err != nil {
		t.Fatal(err)
	}
	tf, err := ReadTraceFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.Events) != 0 || tf.Meta["tool"] != "x" {
		t.Fatalf("parsed %+v", tf)
	}
}
