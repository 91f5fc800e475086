package telemetry

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParseEvent is the event-line decoder's fuzz target: parsing never
// panics, and an accepted line's rendering is canonical — it parses
// again and renders to exactly itself. (ParseEvent tolerates fields a
// kind does not render, so the first rendering, not the input, is the
// canonical form.)
func FuzzParseEvent(f *testing.F) {
	for _, e := range sampleEvents() {
		f.Add(e.String())
	}
	f.Add("4 REF rank=1 bank=2 row=3")
	f.Add("7 DECODE addr=0o17 status=1 ok=0")
	f.Add("-1 ACT")
	f.Fuzz(func(t *testing.T, line string) {
		e, err := ParseEvent(line)
		if err != nil {
			return
		}
		s := e.String()
		back, err := ParseEvent(s)
		if err != nil {
			t.Fatalf("rendering %q of accepted line %q does not parse: %v", s, line, err)
		}
		if got := back.String(); got != s {
			t.Fatalf("rendering unstable: %q re-renders as %q", s, got)
		}
	})
}

// FuzzReadTraceFile is the trace-file reader's fuzz target: reading
// never panics, and an accepted file, rendered back out (header, sorted
// meta, events, dropped trailer), re-reads to an equal TraceFile, its
// events in their canonical rendering.
func FuzzReadTraceFile(f *testing.F) {
	var sample bytes.Buffer
	if err := writeTrace(&sample, map[string]string{"tool": "sgprof", "scheme": "SafeGuard"},
		sampleEvents(), 3); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())
	f.Add([]byte(tolerantTraceFile))
	for _, body := range traceFileRejects {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		tf, err := ReadTraceFile(bytes.NewReader(in))
		if err != nil {
			return
		}
		want := *tf
		want.Events = nil
		for _, e := range tf.Events {
			c, err := ParseEvent(e.String())
			if err != nil {
				t.Fatalf("rendering of accepted event %+v does not parse: %v", e, err)
			}
			want.Events = append(want.Events, c)
		}
		var out bytes.Buffer
		if err := writeTrace(&out, tf.Meta, tf.Events, tf.Dropped); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTraceFile(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("rendering of an accepted file does not re-read: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(back, &want) {
			t.Fatalf("re-read differs:\n got  %+v\n want %+v\nrendering:\n%s", back, &want, out.Bytes())
		}
	})
}
