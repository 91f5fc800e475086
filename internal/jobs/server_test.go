package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"safeguard/internal/resultcache"
	"safeguard/internal/telemetry"
)

const tinyPerfBody = `{"kind":"perf","perf":{"schemes":["SafeGuard"],"workloads":["leela"],"seeds":[1],"instr_per_core":1500,"warmup_instr":500}}`

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
		cfg.Telemetry = reg
	}
	m := NewManager(cfg)
	t.Cleanup(m.Close)
	ts := httptest.NewServer(NewServer(m, reg))
	t.Cleanup(ts.Close)
	return ts, m
}

func postJob(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeView(t *testing.T, resp *http.Response) JobView {
	t.Helper()
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestServerSubmitAndPoll(t *testing.T) {
	t.Parallel()
	ts, _ := newTestServer(t, Config{Runner: okRunner(nil)})
	resp := postJob(t, ts, tinyPerfBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	v := decodeView(t, resp)
	if loc != "/v1/jobs/"+v.ID {
		t.Fatalf("Location = %q for job %s", loc, v.ID)
	}
	// Poll until terminal.
	for i := 0; i < 200; i++ {
		pr, err := http.Get(ts.URL + loc)
		if err != nil {
			t.Fatal(err)
		}
		pv := decodeView(t, pr)
		if pr.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d", pr.StatusCode)
		}
		if pv.State.Terminal() {
			if pv.State != StateDone {
				t.Fatalf("job ended %s: %s", pv.State, pv.Error)
			}
			return
		}
	}
	t.Fatal("job never reached a terminal state")
}

func TestServerRejectsBadRequests(t *testing.T) {
	t.Parallel()
	ts, _ := newTestServer(t, Config{Runner: okRunner(nil)})
	for name, body := range map[string]string{
		"not json":      "][",
		"unknown field": `{"kind":"perf","perf":{"sheme":["SafeGuard"]}}`,
		"unknown kind":  `{"kind":"fuzz"}`,
		"bad scheme":    `{"kind":"perf","perf":{"schemes":["tetraguard"]}}`,
	} {
		resp := postJob(t, ts, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestServer429OnFullQueue(t *testing.T) {
	t.Parallel()
	g := newGateRunner()
	ts, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Runner: g.run})
	defer close(g.release)

	// Distinct configs: seed 1 runs (gated), seed 2 queues, seed 3 must
	// bounce with 429 + Retry-After.
	bodies := []string{
		strings.Replace(tinyPerfBody, `"seeds":[1]`, `"seeds":[1]`, 1),
		strings.Replace(tinyPerfBody, `"seeds":[1]`, `"seeds":[2]`, 1),
		strings.Replace(tinyPerfBody, `"seeds":[1]`, `"seeds":[3]`, 1),
	}
	r1 := postJob(t, ts, bodies[0])
	r1.Body.Close()
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", r1.StatusCode)
	}
	<-g.started
	r2 := postJob(t, ts, bodies[1])
	r2.Body.Close()
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d", r2.StatusCode)
	}
	r3 := postJob(t, ts, bodies[2])
	defer r3.Body.Close()
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overfull submit = %d, want 429", r3.StatusCode)
	}
	if ra := r3.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestServer503WhileDraining(t *testing.T) {
	t.Parallel()
	ts, m := newTestServer(t, Config{Runner: okRunner(nil)})
	if _, err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp := postJob(t, ts, tinyPerfBody)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 without Retry-After")
	}
	// Liveness stays green — a draining process is finishing accepted
	// work and must not be restarted — while readiness flips to 503 so
	// load balancers stop routing here before the submit 503s start.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz = %d, want 200 (liveness)", hr.StatusCode)
	}
	rr, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", rr.StatusCode)
	}
}

// The readiness hook lets an embedder (the fleet coordinator) declare
// the server degraded without touching liveness.
func TestServerReadyHookDegraded(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	m := NewManager(Config{Runner: okRunner(nil), Telemetry: reg})
	t.Cleanup(m.Close)
	srv := NewServer(m, reg)
	degraded := true
	srv.Ready = func() error {
		if degraded {
			return fmt.Errorf("no live workers")
		}
		return nil
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	check := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	check("/readyz", http.StatusServiceUnavailable)
	check("/healthz", http.StatusOK) // degraded ≠ dead
	degraded = false
	check("/readyz", http.StatusOK)
}

func TestServerResultEndpoint(t *testing.T) {
	t.Parallel()
	cache, err := resultcache.New(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t, Config{Cache: cache, Runner: okRunner(nil)})

	// Malformed hash: 400 (and never a path traversal).
	for _, bad := range []string{"xyz", strings.Repeat("Z", resultcache.HashBytes)} {
		resp, err := http.Get(ts.URL + "/v1/results/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed hash %q = %d, want 400", bad, resp.StatusCode)
		}
	}
	// Well-formed but absent: 404.
	req := reqN(t, 1)
	hash, err := req.Hash()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/results/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent result = %d, want 404", resp.StatusCode)
	}
}

func TestServerHealthAndTelemetrySurface(t *testing.T) {
	t.Parallel()
	ts, _ := newTestServer(t, Config{Runner: okRunner(nil)})
	for _, path := range []string{"/healthz", "/readyz", "/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
	// Unknown job: 404. Wrong method on a job: 405 from the pattern mux.
	resp, err := http.Get(ts.URL + "/v1/jobs/j-000099")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}
	dr, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j-000001", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(dr)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE job = %d, want 405", resp2.StatusCode)
	}
}

func TestServerOversizeBody(t *testing.T) {
	t.Parallel()
	ts, _ := newTestServer(t, Config{Runner: okRunner(nil)})
	resp := postJob(t, ts, `{"kind":"perf","pad":"`+strings.Repeat("x", maxRequestBody+1)+`"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize submit = %d, want 400", resp.StatusCode)
	}
}
