package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"safeguard/internal/resultcache"
	"safeguard/internal/telemetry"
)

// The end-to-end suite drives the real stack — HTTP API, manager,
// CachedRunner, result cache, deterministic simulation pools — exactly
// as cmd/sgserve wires it, over httptest instead of a TCP port.

// e2eStack is the cmd/sgserve wiring minus flags and signals.
func e2eStack(t *testing.T, workers, queueDepth int) (*httptest.Server, *Manager, *resultcache.Cache, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cache, err := resultcache.New(resultcache.Options{
		MemEntries: 16, Dir: t.TempDir(), Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{
		Workers: workers, QueueDepth: queueDepth,
		PendingPath: filepath.Join(t.TempDir(), "pending.json"),
		Cache:       cache, Telemetry: reg,
	})
	t.Cleanup(m.Close)
	ts := httptest.NewServer(NewServer(m, reg))
	t.Cleanup(ts.Close)
	return ts, m, cache, reg
}

func pollDone(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		v := decodeView(t, resp)
		if v.State.Terminal() {
			if v.State != StateDone {
				t.Fatalf("job %s ended %s: %s", id, v.State, v.Error)
			}
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobView{}
}

func fetchResult(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// Submit → poll → result, then prove the cache hit is byte-identical to
// a direct simulation run outside the service.
func TestE2ESubmitPollResultBitIdentity(t *testing.T) {
	t.Parallel()
	ts, _, _, reg := e2eStack(t, 2, 8)

	resp := postJob(t, ts, tinyPerfBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	v := decodeView(t, resp)
	done := pollDone(t, ts, v.ID)
	artBytes := fetchResult(t, ts, done.Result)

	art, err := resultcache.ReadArtifact(bytes.NewReader(artBytes))
	if err != nil {
		t.Fatalf("served artifact fails its own reader: %v", err)
	}
	if art.Hash != v.Hash {
		t.Fatalf("artifact hash %s, job hash %s", art.Hash, v.Hash)
	}

	// Direct run, no service: the result bytes must match the artifact's.
	req, err := resultcache.ParseRequest(strings.NewReader(tinyPerfBody))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := req.Execute(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := json.Compact(&a, art.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("cache result differs from direct run:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}

	// Resubmitting the identical config is answered from the cache (200,
	// Cached, no new job) and serves the exact same artifact bytes.
	resp2 := postJob(t, ts, tinyPerfBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached resubmit = %d, want 200", resp2.StatusCode)
	}
	v2 := decodeView(t, resp2)
	if !v2.Cached || v2.Hash != v.Hash {
		t.Fatalf("cached view = %+v", v2)
	}
	again := fetchResult(t, ts, v2.Result)
	if !bytes.Equal(again, artBytes) {
		t.Fatal("cache hit served different bytes than the original artifact")
	}
	if n := reg.Snapshot().Counters["jobs.submitted"]; n != 1 {
		t.Fatalf("submitted = %d; cached resubmit must not occupy the queue", n)
	}
}

// Concurrent identical submissions coalesce onto one job and one
// simulation, even through the HTTP layer.
func TestE2ESingleflightOverHTTP(t *testing.T) {
	t.Parallel()
	ts, _, _, reg := e2eStack(t, 2, 8)
	const clients = 8
	var wg sync.WaitGroup
	ids := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJob(t, ts, tinyPerfBody)
			v := decodeView(t, resp)
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			if v.ID != "" {
				ids[i] = v.ID
			}
		}(i)
	}
	wg.Wait()
	var jobID string
	for _, id := range ids {
		if id == "" {
			continue // answered from cache after the job finished
		}
		if jobID == "" {
			jobID = id
		}
		if id != jobID {
			t.Fatalf("identical configs spread across jobs %s and %s", jobID, id)
		}
	}
	if jobID != "" {
		pollDone(t, ts, jobID)
	}
	// Exactly one job executed and exactly one artifact was stored: the
	// 8 submissions shared a single simulation.
	snap := reg.Snapshot()
	if snap.Counters["jobs.completed"] != 1 || snap.Counters["resultcache.put"] != 1 {
		t.Fatalf("counters = %v; identical submissions must execute once", snap.Counters)
	}
}

// A full queue answers 429 + Retry-After, every accepted job still
// completes, and the bounced config succeeds on retry once the queue
// frees — the full client backoff cycle. The runner is gated so queue
// occupancy is deterministic rather than a race against simulation
// speed; everything else is the production stack.
func TestE2EBackpressure(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	cache, err := resultcache.New(resultcache.Options{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	g := newGateRunner()
	m := NewManager(Config{
		Workers: 1, QueueDepth: 1, Cache: cache, Telemetry: reg, Runner: g.run,
	})
	t.Cleanup(m.Close)
	ts := httptest.NewServer(NewServer(m, reg))
	t.Cleanup(ts.Close)

	body := func(seed int) string {
		return strings.Replace(tinyPerfBody, `"seeds":[1]`, fmt.Sprintf(`"seeds":[%d]`, seed), 1)
	}
	var accepted []string
	for seed := 1; seed <= 2; seed++ {
		resp := postJob(t, ts, body(seed))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit seed %d = %d", seed, resp.StatusCode)
		}
		accepted = append(accepted, decodeView(t, resp).ID)
		if seed == 1 {
			<-g.started // seed 1 running, so seed 2 occupies the only slot
		}
	}
	resp := postJob(t, ts, body(3))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overfull submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(g.release)
	for _, id := range accepted {
		pollDone(t, ts, id)
	}
	// The client retry after Retry-After: the same config is accepted now.
	retry := postJob(t, ts, body(3))
	if retry.StatusCode != http.StatusAccepted {
		t.Fatalf("retry submit = %d, want 202", retry.StatusCode)
	}
	pollDone(t, ts, decodeView(t, retry).ID)
	if n := reg.Snapshot().Counters["jobs.rejected.full"]; n != 1 {
		t.Fatalf("rejected.full = %d", n)
	}
}

// The SIGTERM path: drain completes every accepted job when given time
// (cmd/sgserve calls exactly this on SIGTERM).
func TestE2EDrainZeroDropped(t *testing.T) {
	t.Parallel()
	ts, m, _, _ := e2eStack(t, 2, 16)
	seeds := []string{"[1]", "[2]", "[3]", "[4]", "[5]"}
	var ids []string
	for _, s := range seeds {
		resp := postJob(t, ts, strings.Replace(tinyPerfBody, `"seeds":[1]`, `"seeds":`+s, 1))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s = %d", s, resp.StatusCode)
		}
		ids = append(ids, decodeView(t, resp).ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := m.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(seeds) || rep.Persisted != 0 || rep.Failed != 0 || rep.Running != 0 {
		t.Fatalf("drain report = %+v, want all %d completed", rep, len(seeds))
	}
	// Every accepted job is done and its result is servable even while
	// the server refuses new work.
	for _, id := range ids {
		v, ok := m.Job(id)
		if !ok || v.State != StateDone {
			t.Fatalf("job %s after drain: %+v", id, v)
		}
		fetchResult(t, ts, v.Result)
	}
	resp := postJob(t, ts, strings.Replace(tinyPerfBody, `"seeds":[1]`, `"seeds":[9]`, 1))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit = %d, want 503", resp.StatusCode)
	}
}

// Restart persistence: a drain that runs out of time journals queued
// jobs; a second service over the same cache dir resumes and finishes
// them.
func TestE2EDrainPersistAndResume(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	pending := filepath.Join(dir, "pending.json")
	reg := telemetry.NewRegistry()
	cache, err := resultcache.New(resultcache.Options{Dir: dir, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	g := newGateRunner()
	m1 := NewManager(Config{
		Workers: 1, QueueDepth: 8, PendingPath: pending,
		Cache: cache, Telemetry: reg, Runner: g.run,
	})
	defer m1.Close()
	var hashes []string
	for i := uint64(0); i < 3; i++ {
		v, err := m1.Submit(reqN(t, i+1))
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, v.Hash)
		if i == 0 {
			<-g.started
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	go func() { time.Sleep(80 * time.Millisecond); close(g.release) }()
	rep, err := m1.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Persisted != 2 {
		t.Fatalf("drain report = %+v, want 2 persisted", rep)
	}
	if rep.InFlightJournaled != 1 {
		t.Fatalf("drain report = %+v, want the running job journaled", rep)
	}

	// "Restart": a fresh manager with the real runner resumes the journal
	// — exactly what cmd/sgserve does on boot. The journal covers the 2
	// queued jobs plus the one that was still running at the deadline;
	// resubmitting the latter is a cache hit once its first run finished.
	m2 := NewManager(Config{Workers: 2, Cache: cache, Telemetry: reg})
	defer m2.Close()
	reqs, err := LoadPendingJobs(pending, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3 {
		t.Fatalf("journal holds %d requests", len(reqs))
	}
	for _, r := range reqs {
		v, err := m2.Submit(r.Request)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m2, v.ID, StateDone)
	}
	// All three configs now have artifacts: nothing was dropped across
	// the restart.
	for _, h := range hashes {
		if _, ok, err := cache.Get(h); !ok || err != nil {
			t.Fatalf("persisted job %s has no artifact after resume (%v)", h, err)
		}
	}
}

// A job still running when the drain deadline hits is journaled by its
// request alone and re-runs from the start on the next service instance,
// beside the queued job the drain persisted — the resubmission
// cmd/sgserve performs on boot.
func TestE2EInFlightRerunAfterDrain(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	pending := filepath.Join(dir, "pending.json")
	reg := telemetry.NewRegistry()
	cache, err := resultcache.New(resultcache.Options{Dir: dir, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}

	// First instance: the runner blocks until shutdown kills it — a
	// process dying mid-run.
	started := make(chan struct{})
	runner1 := func(ctx context.Context, req *resultcache.Request) (json.RawMessage, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	m1 := NewManager(Config{
		Workers: 1, QueueDepth: 8, MaxAttempts: 1, PendingPath: pending,
		Cache: cache, Telemetry: reg, Runner: runner1,
	})
	defer m1.Close()
	v1, err := m1.Submit(reqN(t, 31))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	v2, err := m1.Submit(reqN(t, 32))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	rep, err := m1.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Persisted != 1 || rep.InFlightJournaled != 1 {
		t.Fatalf("drain report = %+v, want 1 persisted + 1 in-flight journaled", rep)
	}
	m1.Close()

	raw, err := os.ReadFile(pending)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "checkpoint") {
		t.Fatalf("journal carries a checkpoint key:\n%s", raw)
	}
	pjs, err := LoadPendingJobs(pending, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pjs) != 2 {
		t.Fatalf("journal holds %d entries, want 2", len(pjs))
	}

	// Second instance: both journaled requests resubmit under their
	// original hashes and run from the start.
	var mu sync.Mutex
	ran := map[string]int{}
	runner2 := func(ctx context.Context, req *resultcache.Request) (json.RawMessage, error) {
		h, err := req.Hash()
		if err != nil {
			return nil, err
		}
		mu.Lock()
		ran[h]++
		mu.Unlock()
		return json.RawMessage(`{}`), nil
	}
	m2 := NewManager(Config{Workers: 2, Cache: cache, Telemetry: reg, Runner: runner2})
	defer m2.Close()
	for _, pj := range pjs {
		v, err := m2.Submit(pj.Request)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m2, v.ID, StateDone)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran[v1.Hash] != 1 || ran[v2.Hash] != 1 || len(ran) != 2 {
		t.Fatalf("restart ran %v, want the in-flight %s and the queued %s once each", ran, v1.Hash, v2.Hash)
	}
}
