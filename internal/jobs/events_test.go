package jobs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"safeguard/internal/resultcache"
	"safeguard/internal/telemetry"
)

// collectJob drains a subscription until the job's terminal event (or a
// timeout), returning the event types in arrival order.
func collectJob(t *testing.T, sub *telemetry.Subscription, job string) []telemetry.JobEvent {
	t.Helper()
	var evs []telemetry.JobEvent
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-sub.C:
			if ev.Job != job {
				continue
			}
			evs = append(evs, ev)
			if ev.Terminal() {
				return evs
			}
		case <-deadline:
			t.Fatalf("timed out; events so far: %+v", evs)
		}
	}
}

func eventTypes(evs []telemetry.JobEvent) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.Type
	}
	return out
}

// A successful job must emit queued -> leased -> progress* -> complete,
// in bus order, with schema stamps throughout.
func TestManagerPublishesLifecycle(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	bus := telemetry.NewBus(reg)
	sub := bus.Subscribe(64, nil)
	defer sub.Close()

	progressRunner := func(ctx context.Context, _ *resultcache.Request) (json.RawMessage, error) {
		pv := telemetry.ProgressFromContext(ctx)
		pv.Set(telemetry.Progress{Phase: "measure", Done: 1, Total: 2})
		pv.Set(telemetry.Progress{Phase: "measure", Done: 2, Total: 2})
		return json.RawMessage(`{}`), nil
	}
	m := NewManager(Config{Runner: progressRunner, Telemetry: reg, Bus: bus})
	defer m.Close()

	v, err := m.Submit(reqN(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateDone)
	evs := collectJob(t, sub, v.ID)
	types := eventTypes(evs)
	if types[0] != telemetry.EventQueued || types[1] != telemetry.EventLeased {
		t.Fatalf("lifecycle prefix = %v, want [queued leased ...]", types)
	}
	nProgress := 0
	for _, typ := range types[2 : len(types)-1] {
		if typ != telemetry.EventProgress {
			t.Fatalf("unexpected mid-lifecycle event %q in %v", typ, types)
		}
		nProgress++
	}
	if nProgress < 1 {
		t.Fatalf("no progress events in %v", types)
	}
	if last := evs[len(evs)-1]; last.Type != telemetry.EventComplete {
		t.Fatalf("terminal event = %+v, want complete", last)
	} else if last.Progress == nil || last.Progress.Done != 2 {
		t.Fatalf("complete event progress = %+v, want the final span", last.Progress)
	}
	for i, ev := range evs {
		if ev.Schema != telemetry.EventSchema {
			t.Fatalf("event %d schema %q", i, ev.Schema)
		}
		if i > 0 && ev.Seq <= evs[i-1].Seq {
			t.Fatalf("bus order broken: %+v", evs)
		}
	}
	// JobView mirrors the final span.
	done, _ := m.Job(v.ID)
	if done.Progress == nil || done.Progress.Done != 2 || done.Progress.Total != 2 {
		t.Fatalf("JobView progress = %+v", done.Progress)
	}
}

// Retried attempts emit retried events carrying the attempt number and
// the prior error; a permanently failing job ends in failed.
func TestManagerPublishesRetriesAndFailure(t *testing.T) {
	t.Parallel()
	bus := telemetry.NewBus(nil)
	sub := bus.Subscribe(64, nil)
	defer sub.Close()

	flaky := func(context.Context, *resultcache.Request) (json.RawMessage, error) {
		return nil, Transient(fmt.Errorf("flaky"))
	}
	m := NewManager(Config{
		Runner: flaky, Bus: bus, MaxAttempts: 3,
		RetryBackoff: time.Microsecond,
	})
	defer m.Close()

	v, err := m.Submit(reqN(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateFailed)
	evs := collectJob(t, sub, v.ID)
	types := eventTypes(evs)
	want := []string{
		telemetry.EventQueued, telemetry.EventLeased,
		telemetry.EventRetried, telemetry.EventRetried, telemetry.EventFailed,
	}
	if len(types) != len(want) {
		t.Fatalf("types = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("types = %v, want %v", types, want)
		}
	}
	if evs[2].Attempt != 2 || evs[3].Attempt != 3 {
		t.Fatalf("retried attempts = %d, %d, want 2, 3", evs[2].Attempt, evs[3].Attempt)
	}
	if evs[4].Error == "" {
		t.Fatal("failed event carries no error")
	}
}

// The progress observer rate-limits: a 10k-step executor must not emit
// 10k events, but the final span always gets through.
func TestProgressEventsRateLimited(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	bus := telemetry.NewBus(reg)
	steps := 10_000
	runner := func(ctx context.Context, _ *resultcache.Request) (json.RawMessage, error) {
		pv := telemetry.ProgressFromContext(ctx)
		for i := 1; i <= steps; i++ {
			pv.Set(telemetry.Progress{Phase: "measure", Done: int64(i), Total: int64(steps)})
		}
		return json.RawMessage(`{}`), nil
	}
	m := NewManager(Config{Runner: runner, Telemetry: reg, Bus: bus})
	defer m.Close()
	sub := bus.Subscribe(1024, func(ev telemetry.JobEvent) bool { return ev.Type == telemetry.EventProgress })
	defer sub.Close()

	v, err := m.Submit(reqN(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateDone)
	published := reg.Counter("bus.published").Value()
	if published > 200 {
		t.Fatalf("bus.published = %d for a %d-step run; rate limit broken", published, steps)
	}
	var final telemetry.JobEvent
	timeout := time.After(5 * time.Second)
drain:
	for {
		select {
		case ev := <-sub.C:
			final = ev
		case <-timeout:
			t.Fatal("no progress events arrived")
		default:
			if final.Type != "" {
				break drain
			}
			time.Sleep(time.Millisecond)
		}
	}
	if final.Progress == nil || final.Progress.Done != int64(steps) {
		t.Fatalf("final progress event = %+v, want Done == %d", final.Progress, steps)
	}
}

// GET /v1/jobs pages through the table in submission order.
func TestServerJobList(t *testing.T) {
	t.Parallel()
	g := newGateRunner()
	ts, m := newTestServer(t, Config{Workers: 1, Runner: g.run})
	var ids []string
	for seed := uint64(1); seed <= 5; seed++ {
		v, err := m.Submit(reqN(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	close(g.release)
	for _, id := range ids {
		waitState(t, m, id, StateDone)
	}

	get := func(query string) JobList {
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs%s status %d", query, resp.StatusCode)
		}
		var jl JobList
		if err := json.NewDecoder(resp.Body).Decode(&jl); err != nil {
			t.Fatal(err)
		}
		return jl
	}
	all := get("")
	if all.Total != 5 || len(all.Jobs) != 5 {
		t.Fatalf("list = %+v", all)
	}
	for i, v := range all.Jobs {
		if v.ID != ids[i] {
			t.Fatalf("job %d id = %s, want %s (submission order)", i, v.ID, ids[i])
		}
		if v.State != StateDone {
			t.Fatalf("job %s state = %s", v.ID, v.State)
		}
	}
	page := get("?offset=3&limit=1")
	if page.Total != 5 || len(page.Jobs) != 1 || page.Jobs[0].ID != ids[3] {
		t.Fatalf("page = %+v", page)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs?offset=-1"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad offset status = %d", resp.StatusCode)
		}
	}
}

// The job table keeps every queued and running job but only the
// retainTerminal most recently finished ones: older finished jobs leave
// the table (404 on lookup), while the drain report still counts them.
func TestJobTableRetainsBoundedFinishedJobs(t *testing.T) {
	t.Parallel()
	const n = retainTerminal + 100
	reg := telemetry.NewRegistry()
	stub := func(context.Context, *resultcache.Request) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	}
	ts, m := newTestServer(t, Config{Workers: 2, Runner: stub, Telemetry: reg, Bus: telemetry.NewBus(reg)})
	var first, last string
	for i := 0; i < n; i++ {
		v, err := m.Submit(reqN(t, uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = v.ID
		}
		last = v.ID
		waitState(t, m, v.ID, StateDone)
	}

	views, total := m.List(0, 0)
	terminal := 0
	for _, v := range views {
		if v.State.Terminal() {
			terminal++
		}
	}
	if terminal > retainTerminal || total != len(views) {
		t.Fatalf("table holds %d terminal jobs (total %d), want at most %d", terminal, total, retainTerminal)
	}
	status := func(id string) int {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := status(first); code != http.StatusNotFound {
		t.Fatalf("GET first job %s = %d, want 404 (evicted)", first, code)
	}
	if code := status(last); code != http.StatusOK {
		t.Fatalf("GET last job %s = %d, want 200", last, code)
	}

	rep, err := m.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n || rep.Failed != 0 || rep.Persisted != 0 || rep.Running != 0 {
		t.Fatalf("drain report = %+v, want all %d jobs completed", rep, n)
	}
}

// readSSE reads `data:` frames off an SSE stream until a terminal event
// or EOF, returning decoded events and any comment lines.
func readSSE(t *testing.T, r *bufio.Reader, stopAtTerminal bool) ([]telemetry.JobEvent, []string) {
	t.Helper()
	var evs []telemetry.JobEvent
	var comments []string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return evs, comments
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, ": "):
			comments = append(comments, line)
		case strings.HasPrefix(line, "data: "):
			var ev telemetry.JobEvent
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				t.Fatalf("bad SSE payload %q: %v", line, err)
			}
			evs = append(evs, ev)
			if stopAtTerminal && ev.Terminal() {
				return evs, comments
			}
		}
	}
}

// GET /v1/jobs/{id}/events replays a finished job's full lifecycle and
// closes after the terminal event.
func TestServerJobEventsReplayAfterCompletion(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	bus := telemetry.NewBus(reg)
	ts, m := newTestServer(t, Config{Runner: okRunner(nil), Telemetry: reg, Bus: bus})

	v, err := m.Submit(reqN(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateDone)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	evs, _ := readSSE(t, bufio.NewReader(resp.Body), false) // server closes after terminal
	types := eventTypes(evs)
	if len(types) < 3 || types[0] != telemetry.EventQueued || types[len(types)-1] != telemetry.EventComplete {
		t.Fatalf("replayed lifecycle = %v", types)
	}
	for _, ev := range evs {
		if ev.Job != v.ID {
			t.Fatalf("foreign job %q leaked into the stream", ev.Job)
		}
	}
}

// The firehose streams events for every job, live.
func TestServerEventsFirehose(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	bus := telemetry.NewBus(reg)
	ts, m := newTestServer(t, Config{Runner: okRunner(nil), Telemetry: reg, Bus: bus})

	resp, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("firehose status %d", resp.StatusCode)
	}
	r := bufio.NewReader(resp.Body)

	v1, err := m.Submit(reqN(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v1.ID, StateDone)
	v2, err := m.Submit(reqN(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v2.ID, StateDone)

	seen := map[string]bool{}
	deadline := time.Now().Add(5 * time.Second)
	for !(seen[v1.ID] && seen[v2.ID]) {
		if time.Now().After(deadline) {
			t.Fatalf("firehose missing jobs; saw %v", seen)
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("firehose closed early: %v", err)
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev telemetry.JobEvent
		if err := json.Unmarshal([]byte(strings.TrimSpace(line[len("data: "):])), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Terminal() {
			seen[ev.Job] = true
		}
	}
}

// Without a bus the SSE endpoints 404 instead of hanging.
func TestServerEventsWithoutBus(t *testing.T) {
	t.Parallel()
	ts, m := newTestServer(t, Config{Runner: okRunner(nil)})
	v, err := m.Submit(reqN(t, 21))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateDone)
	for _, path := range []string{"/v1/events", "/v1/jobs/" + v.ID + "/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s without bus: status %d, want 404", path, resp.StatusCode)
		}
	}
	// Unknown job id with a bus: also 404.
	reg := telemetry.NewRegistry()
	ts2, _ := newTestServer(t, Config{Runner: okRunner(nil), Telemetry: reg, Bus: telemetry.NewBus(reg)})
	resp, err := http.Get(ts2.URL + "/v1/jobs/j-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events status = %d", resp.StatusCode)
	}
}

// The jobs server serves /metrics in exposition format — the sgserve
// scrape target.
func TestServerMetricsEndpoint(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	ts, m := newTestServer(t, Config{Runner: okRunner(nil), Telemetry: reg})
	v, err := m.Submit(reqN(t, 31))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateDone)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PrometheusContentType {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	body := readAll(t, resp)
	if !strings.Contains(body, "sg_jobs_completed_total 1") {
		t.Fatalf("/metrics missing jobs counter:\n%s", body)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// A slow SSE consumer never stalls the manager: the bus sheds events
// for it and the stream reports the gap as a comment.
func TestServerSSESlowConsumerSeesDropComment(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	bus := telemetry.NewBus(reg)
	// Publish far more events than the subscriber buffer holds before the
	// handler ever runs, then connect: the replay overflows and the drop
	// counter trips.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := &Server{RetryAfterSeconds: 5}
		s.serveSSE(w, r, bus.Subscribe(4, nil), false)
	}))
	defer srv.Close()
	for i := 0; i < 100; i++ {
		bus.Publish(telemetry.JobEvent{Type: telemetry.EventProgress, Job: "j-000001"})
	}
	bus.Publish(telemetry.JobEvent{Type: telemetry.EventComplete, Job: "j-000001"})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	evs, comments := readSSE(t, bufio.NewReader(resp.Body), true)
	if len(evs) == 0 || evs[len(evs)-1].Type != telemetry.EventComplete {
		t.Fatalf("slow consumer lost the lifecycle tail: %v", eventTypes(evs))
	}
	found := false
	for _, c := range comments {
		if strings.HasPrefix(c, ": dropped=") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no dropped= comment despite shedding; comments = %v", comments)
	}
}
