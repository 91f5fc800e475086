// The observability end-to-end suite: the same full stack as e2e_test.go
// (HTTP job API + manager + coordinator + real workers over httptest),
// proving the observability plane's promises:
//
//  1. A fleet job's SSE stream replays the exact lifecycle — queued,
//     leased, at least one progress span, complete — in bus order.
//  2. The coordinator's executor series — every series outside the
//     "fleet." prefix, merged from verified completions — are
//     bit-identical between a 1-worker and a 4-worker fleet: per-job
//     telemetry folds in exactly once, commutatively, however jobs are
//     scheduled.
//  3. A worker that dies mid-run has its progress superseded by the
//     worker that finishes the job — last-wins attribution, no ghosts.
package fleet_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"safeguard/internal/fleet/chaos"
	"safeguard/internal/telemetry"
)

// tinyRel is the reliability counterpart of tinyPerf. Rel jobs never
// deposit warm checkpoints, so their event stream is pure lifecycle —
// the shape the exact-sequence assertion needs.
const tinyRel = `{"kind":"rel","rel":{"evaluators":["secded"],"modules":20000}}`

// seriesWithout returns the snapshot's series whose names do not start
// with prefix. On a coordinator registry, seriesWithout(snap, "fleet.")
// is the executor series merged from verified completions.
func seriesWithout(snap telemetry.Snapshot, prefix string) telemetry.Snapshot {
	out := telemetry.Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]telemetry.HistogramSnapshot{},
	}
	for name, v := range snap.Counters {
		if !strings.HasPrefix(name, prefix) {
			out.Counters[name] = v
		}
	}
	for name, v := range snap.Gauges {
		if !strings.HasPrefix(name, prefix) {
			out.Gauges[name] = v
		}
	}
	for name, v := range snap.Histograms {
		if !strings.HasPrefix(name, prefix) {
			out.Histograms[name] = v
		}
	}
	return out
}

// seriesCount is the number of series in a snapshot.
func seriesCount(snap telemetry.Snapshot) int {
	return len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms)
}

// executorSeries is the coordinator's telemetry outside "fleet.".
func (s *stack) executorSeries() telemetry.Snapshot {
	return seriesWithout(s.creg.Snapshot(), "fleet.")
}

// readJobStream replays one job's SSE stream to its end (the server
// closes after the terminal event) and returns the decoded events.
func readJobStream(t *testing.T, url string) []telemetry.JobEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	var events []telemetry.JobEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		payload, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev telemetry.JobEvent
		if err := json.Unmarshal([]byte(payload), &ev); err != nil {
			t.Fatalf("undecodable SSE event %q: %v", payload, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestObsSmokeFleetSSELifecycle submits one rel job to a 1-worker fleet
// and requires its replayed SSE stream to be exactly queued → leased →
// progress(≥1) → complete, in bus order, with the progress and terminal
// events attributed to the worker that ran it.
func TestObsSmokeFleetSSELifecycle(t *testing.T) {
	s := newStackTTL(t, 10*time.Second)
	s.startWorker(nil)

	v := s.submit(tinyRel)
	s.awaitDone(v.ID)
	events := readJobStream(t, s.ts.URL+"/v1/jobs/"+v.ID+"/events")

	if len(events) < 4 {
		t.Fatalf("stream has %d events, want >= 4 (queued, leased, progress..., complete): %+v", len(events), events)
	}
	var lastSeq uint64
	for i, ev := range events {
		if ev.Schema != telemetry.EventSchema {
			t.Fatalf("event %d schema = %q, want %q", i, ev.Schema, telemetry.EventSchema)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("event %d seq %d not after %d — stream left bus order", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Job != v.ID {
			t.Fatalf("event %d leaked from job %q into %q's stream", i, ev.Job, v.ID)
		}
	}
	if events[0].Type != telemetry.EventQueued {
		t.Fatalf("first event = %q, want queued", events[0].Type)
	}
	if events[1].Type != telemetry.EventLeased {
		t.Fatalf("second event = %q, want leased", events[1].Type)
	}
	last := events[len(events)-1]
	if last.Type != telemetry.EventComplete {
		t.Fatalf("last event = %q, want complete", last.Type)
	}
	for i, ev := range events[2 : len(events)-1] {
		if ev.Type != telemetry.EventProgress {
			t.Fatalf("middle event %d = %q, want progress only", i+2, ev.Type)
		}
		if ev.Worker != "w1" {
			t.Fatalf("progress event attributed to %q, want w1", ev.Worker)
		}
	}
	if last.Worker != "w1" || last.Progress == nil {
		t.Fatalf("complete event = %+v, want worker w1 with final progress", last)
	}
}

// TestObsSmokeFleetMergedSnapshotBitIdentical runs the same job set
// through a 1-worker fleet and a 4-worker fleet and requires the
// coordinators' executor series to be bit-identical: per-job telemetry
// merges exactly once per completion with commutative operations, so
// scheduling and worker count cannot show through.
func TestObsSmokeFleetMergedSnapshotBitIdentical(t *testing.T) {
	const njobs = 4

	one := newStackTTL(t, 10*time.Second)
	one.startWorker(nil)
	one.assertNoLossNoDup(one.runJobs(njobs), njobs)

	four := newStackTTL(t, 10*time.Second)
	for i := 0; i < 4; i++ {
		four.startWorker(nil)
	}
	four.assertNoLossNoDup(four.runJobs(njobs), njobs)

	s1, s4 := one.executorSeries(), four.executorSeries()
	if s1.Counters["experiments.runs"] == 0 {
		t.Fatal("1-worker executor series count no experiment runs — workers shipped no telemetry")
	}
	if !s1.Equal(s4) {
		b1, _ := json.Marshal(s1)
		b4, _ := json.Marshal(s4)
		t.Fatalf("executor series diverge between 1 and 4 workers:\n1: %s\n4: %s", b1, b4)
	}
}

// TestChaosKillMidRunProgressSuperseded kills the first worker mid-run
// (after its first checkpoint lands) and lets a second worker finish the
// job. The job's final attribution must be the finisher's — the dead
// worker's progress is superseded, and the replayed stream's terminal
// event carries the survivor's final span.
func TestChaosKillMidRunProgressSuperseded(t *testing.T) {
	s := newStack(t)
	plan := chaos.NewPlan(chaos.Script{0: chaos.KillMidRun}, s.notifier)
	w1reg := s.startWorker(plan)

	v := s.submit(fmt.Sprintf(tinyPerf, 7))
	s.waitFor(func() bool { return len(plan.Fired()) == 1 })
	s.waitFor(func() bool { return s.counter("fleet.leases.expired") >= 1 })

	w2reg := s.startWorker(nil)
	done := s.awaitDone(v.ID)

	if done.Worker != "w2" {
		t.Fatalf("final job attribution = %q, want w2 (the finisher supersedes the dead w1)", done.Worker)
	}
	if done.Progress == nil || done.Progress.Phase != "encode" {
		t.Fatalf("final progress = %+v, want the finisher's encode span", done.Progress)
	}
	events := readJobStream(t, s.ts.URL+"/v1/jobs/"+v.ID+"/events")
	last := events[len(events)-1]
	if last.Type != telemetry.EventComplete || last.Worker != "w2" {
		t.Fatalf("terminal event = %+v, want complete from w2", last)
	}
	// Only the finisher's accepted completion may merge telemetry: the
	// coordinator's executor series equal w2's own merged job telemetry,
	// and w1 holds none. A worker merges after its completion's HTTP
	// round trip returns, which races the job resolving.
	s.waitFor(func() bool { return w2reg.Counter("sgworker.completions").Value() == 1 })
	if got, want := s.executorSeries(), seriesWithout(w2reg.Snapshot(), "sgworker."); len(want.Counters) == 0 || !got.Equal(want) {
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		t.Fatalf("coordinator executor series should equal w2's exactly:\ncoordinator: %s\nw2: %s", gb, wb)
	}
	if seriesCount(seriesWithout(w1reg.Snapshot(), "sgworker.")) != 0 {
		t.Fatal("dead w1 merged telemetry despite never completing")
	}
}

// TestObsSmokeHeartbeatLivePreview checks the renew piggyback: while a
// job is mid-execution (the runner blocks on a gate), its heartbeats
// carry the in-flight progress span to the coordinator, which forwards
// it into the manager's job view — and no executor telemetry reaches the
// coordinator until the job actually completes.
func TestObsSmokeHeartbeatLivePreview(t *testing.T) {
	s := newStackTTL(t, 300*time.Millisecond) // heartbeat every 100ms
	release := make(chan struct{})
	s.startGatedWorker(release)

	v := s.submit(fmt.Sprintf(tinyPerf, 8))
	// The mid-run span must surface in the job view, attributed to w1,
	// purely via heartbeat piggyback — the job has not completed.
	s.waitFor(func() bool {
		view, ok := s.mgr.Job(v.ID)
		return ok && view.Worker == "w1" && view.Progress != nil && view.Progress.Phase == "measure"
	})
	if seriesCount(s.executorSeries()) != 0 {
		t.Fatal("coordinator gained executor series from heartbeats alone")
	}
	close(release)
	s.awaitDone(v.ID)
	if ok := s.counter("fleet.completions.ok"); ok != 1 {
		t.Fatalf("fleet.completions.ok = %d, want 1", ok)
	}
}
