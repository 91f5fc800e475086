package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"safeguard/internal/telemetry"
)

// busLines renders one job's lifecycle as the bus stamps it and the
// server frames it: one "data: " line per event.
func busLines(t testing.TB) []string {
	bus := telemetry.NewBus(nil)
	bus.Publish(telemetry.JobEvent{Type: telemetry.EventQueued, Job: "j-000001", Hash: "ab12"})
	bus.Publish(telemetry.JobEvent{Type: telemetry.EventLeased, Job: "j-000001", Hash: "ab12", Worker: "w1"})
	bus.Publish(telemetry.JobEvent{Type: telemetry.EventProgress, Job: "j-000001", Hash: "ab12", Worker: "w1",
		Progress: &telemetry.Progress{Phase: "measure", Done: 3, Total: 8}})
	bus.Publish(telemetry.JobEvent{Type: telemetry.EventCheckpoint, Hash: "ab12", Worker: "w1"})
	bus.Publish(telemetry.JobEvent{Type: telemetry.EventRetried, Job: "j-000001", Hash: "ab12", Attempt: 2, Error: "lease expired"})
	bus.Publish(telemetry.JobEvent{Type: telemetry.EventComplete, Job: "j-000001", Hash: "ab12"})
	bus.Publish(telemetry.JobEvent{Type: telemetry.EventFailed, Job: "j-000002", Hash: "cd34", Error: "bad request"})
	sub := bus.Subscribe(0, nil)
	defer sub.Close()
	var lines []string
	for len(sub.C) > 0 {
		raw, err := json.Marshal(<-sub.C)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, "data: "+string(raw))
	}
	if len(lines) != 7 {
		t.Fatalf("bus replayed %d events, want 7", len(lines))
	}
	return lines
}

// FuzzHandleSSELine is the SSE line decoder's fuzz target, seeded with
// real bus events: no line panics the tracker, and an accepted data
// line's event re-marshals and decodes to the same value.
func FuzzHandleSSELine(f *testing.F) {
	for _, line := range busLines(f) {
		f.Add(line)
	}
	f.Add(": dropped=3")
	f.Add("data: not json")
	f.Add(`data: {"seq":0,"type":"complete"}`)
	tr := newTracker()
	f.Fuzz(func(t *testing.T, line string) {
		handleSSELine(line, tr)
		payload, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			return
		}
		var ev telemetry.JobEvent
		if json.Unmarshal([]byte(payload), &ev) != nil {
			return
		}
		raw, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("accepted event %+v does not marshal: %v", ev, err)
		}
		var back telemetry.JobEvent
		if err := json.Unmarshal(raw, &back); err != nil || !reflect.DeepEqual(back, ev) {
			t.Fatalf("round trip of %s: got %+v (err %v), want %+v", raw, back, err, ev)
		}
	})
}
