// The fleet end-to-end suite: the full sgserve stack — HTTP job API,
// manager, coordinator, result cache — with real fleet.Workers attached
// over httptest, exactly as cmd/sgserve + cmd/sgworker wire it. It
// proves the two promises the fleet makes:
//
//  1. Determinism survives distribution: a 1-worker fleet and a 4-worker
//     fleet serve bit-identical artifact bytes.
//  2. No accepted job is lost or double-completed under worker crash,
//     stall-past-lease (zombie), result corruption, or network
//     partition — each injected deterministically by the chaos harness.
package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"safeguard/internal/fleet"
	"safeguard/internal/fleet/chaos"
	"safeguard/internal/jobs"
	"safeguard/internal/resultcache"
	"safeguard/internal/telemetry"
)

const tinyPerf = `{"kind":"perf","perf":{"schemes":["SafeGuard"],"workloads":["leela"],"seeds":[%d],"instr_per_core":1500,"warmup_instr":500}}`

// stack is one coordinator node: job API + manager + fleet coordinator
// sharing a result cache, plus the workers attached to it. The
// coordinator has a registry of its own, so creg holds exactly the
// "fleet.*" series plus the executor telemetry merged from verified
// completions.
type stack struct {
	t        *testing.T
	ts       *httptest.Server
	coord    *fleet.Coordinator
	mgr      *jobs.Manager
	reg      *telemetry.Registry
	creg     *telemetry.Registry
	bus      *telemetry.Bus
	notifier *chaos.Notifier
	nworkers int
}

// newStack assembles the coordinator node. Chaos tests use aggressive
// lease timing (short TTL, 20ms sweep) so faults resolve in test time;
// the manager retries transient failures almost immediately and often
// enough to outlast multi-fault scripts. The TTL still leaves a healthy
// worker slack to heartbeat through a checkpoint-aware execution (warm
// mint + snapshot encodes saturate every core, worst under -race)
// without its lease expiring under it.
func newStack(t *testing.T) *stack { return newStackTTL(t, 1500*time.Millisecond) }

// newStackTTL picks the lease TTL: fault-free tests run many concurrent
// simulations whose CPU contention (worst under -race) can starve
// heartbeats past an aggressive TTL, so they use a lease no healthy
// worker can miss.
func newStackTTL(t *testing.T, leaseTTL time.Duration) *stack {
	t.Helper()
	reg := telemetry.NewRegistry()
	cache, err := resultcache.New(resultcache.Options{
		MemEntries: 16, Dir: t.TempDir(), Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	notifier := chaos.NewNotifier()
	bus := telemetry.NewBus(reg)
	creg := telemetry.NewRegistry()
	coord, err := fleet.New(fleet.Config{
		Local:    jobs.CachedRunner(cache, reg),
		Cache:    cache,
		Bus:      bus,
		LeaseTTL: leaseTTL,
		PollWait: 100 * time.Millisecond,
		// WorkerTTL stays generous even when the lease TTL is aggressive:
		// these tests prove lease-level fault handling, and a stalled or
		// partitioned worker that the scheduler starves for a few hundred
		// milliseconds must not flip the coordinator into worker-less
		// degradation mid-scenario (that path has its own test, which
		// never attaches a worker at all).
		WorkerTTL:  10 * time.Second,
		SweepEvery: 20 * time.Millisecond,
		Telemetry:  creg,
		ExpireHook: notifier.Notify,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	mgr := jobs.NewManager(jobs.Config{
		Workers: 4, QueueDepth: 64, MaxAttempts: 6,
		RetryBackoff: time.Millisecond,
		Runner:       coord.Run,
		Cache:        cache, Telemetry: reg, Bus: bus,
	})
	t.Cleanup(mgr.Close)
	srv := jobs.NewServer(mgr, reg)
	srv.Ready = coord.Ready
	srv.Handle("/v1/fleet/", coord.Handler())
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &stack{t: t, ts: ts, coord: coord, mgr: mgr, reg: reg, creg: creg, bus: bus, notifier: notifier}
}

// startWorker attaches a (possibly chaos-scripted) worker and waits for
// the coordinator to count it live. Each worker gets its own telemetry
// registry so per-worker counters are assertable.
func (s *stack) startWorker(plan *chaos.Plan) *telemetry.Registry {
	s.t.Helper()
	var cfg fleet.WorkerConfig
	if plan != nil {
		cfg.Hooks = plan.Hooks()
		cfg.Client = plan.Client()
	}
	return s.launch(cfg)
}

// startGatedWorker attaches a worker whose runner reports a "measure"
// span and then holds the job until release closes, before executing it
// directly.
func (s *stack) startGatedWorker(release <-chan struct{}) *telemetry.Registry {
	s.t.Helper()
	return s.launch(fleet.WorkerConfig{
		Run: func(ctx context.Context, req *resultcache.Request) (json.RawMessage, error) {
			telemetry.ProgressFromContext(ctx).Set(telemetry.Progress{Phase: "measure", Done: 1, Total: 3})
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return req.Execute(ctx, nil)
		},
	})
}

// launch names the worker, gives it its own registry, runs it until the
// test ends, and waits until the coordinator counts it live.
func (s *stack) launch(cfg fleet.WorkerConfig) *telemetry.Registry {
	s.t.Helper()
	s.nworkers++
	wreg := telemetry.NewRegistry()
	cfg.Coordinator = s.ts.URL
	cfg.Name = fmt.Sprintf("w%d", s.nworkers)
	cfg.Telemetry = wreg
	cfg.ErrorBackoff = 5 * time.Millisecond
	w, err := fleet.NewWorker(cfg)
	if err != nil {
		s.t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Run(ctx) }()
	s.t.Cleanup(func() { cancel(); <-done })
	s.waitFor(func() bool { return s.coord.Ready() == nil })
	return wreg
}

func (s *stack) waitFor(cond func() bool) {
	s.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.t.Fatal("condition never became true")
}

// counter reads a coordinator ("fleet.*") counter.
func (s *stack) counter(name string) uint64 { return s.creg.Counter(name).Value() }

// submit posts a job and returns its view.
func (s *stack) submit(body string) jobs.JobView {
	s.t.Helper()
	resp, err := http.Post(s.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		s.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		s.t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, b)
	}
	var v jobs.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		s.t.Fatal(err)
	}
	return v
}

// awaitDone polls the job until it lands in StateDone (anything else
// terminal fails the test: chaos must never lose a job).
func (s *stack) awaitDone(id string) jobs.JobView {
	s.t.Helper()
	var last jobs.JobView
	s.waitFor(func() bool {
		resp, err := http.Get(s.ts.URL + "/v1/jobs/" + id)
		if err != nil {
			s.t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&last); err != nil {
			s.t.Fatal(err)
		}
		return last.State.Terminal()
	})
	if last.State != jobs.StateDone {
		s.t.Fatalf("job %s ended %s: %s", id, last.State, last.Error)
	}
	return last
}

// artifactBytes fetches the served artifact for a job's hash.
func (s *stack) artifactBytes(hash string) []byte {
	s.t.Helper()
	resp, err := http.Get(s.ts.URL + "/v1/results/" + hash)
	if err != nil {
		s.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.t.Fatalf("GET /v1/results/%s = %d", hash, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		s.t.Fatal(err)
	}
	return b
}

// runJobs submits n distinct jobs, waits for all, and returns hash →
// artifact bytes.
func (s *stack) runJobs(n int) map[string][]byte {
	s.t.Helper()
	views := make([]jobs.JobView, 0, n)
	for i := 0; i < n; i++ {
		views = append(views, s.submit(fmt.Sprintf(tinyPerf, i+1)))
	}
	out := make(map[string][]byte, n)
	for _, v := range views {
		done := s.awaitDone(v.ID)
		out[done.Hash] = s.artifactBytes(done.Hash)
	}
	return out
}

// assertNoLossNoDup is the chaos postcondition: every submitted job is
// Done with a servable artifact, completed exactly once fleet-wide, and
// the artifact bytes equal an independent local execution's.
func (s *stack) assertNoLossNoDup(results map[string][]byte, wantJobs int) {
	s.t.Helper()
	if len(results) != wantJobs {
		s.t.Fatalf("%d distinct results, want %d", len(results), wantJobs)
	}
	for hash, got := range results {
		if want := referenceArtifact(s.t, hash); !bytes.Equal(got, want) {
			s.t.Fatalf("artifact %s diverged from a local reference execution", hash)
		}
	}
	if ok := s.counter("fleet.completions.ok"); ok != uint64(wantJobs) {
		s.t.Fatalf("fleet.completions.ok = %d, want exactly %d (no lost or duplicated completions)", ok, wantJobs)
	}
	if done := s.reg.Counter("jobs.completed").Value(); done != uint64(wantJobs) {
		s.t.Fatalf("jobs.completed = %d, want %d", done, wantJobs)
	}
}

// referenceArtifact recomputes the artifact bytes for seed-indexed tiny
// jobs entirely outside the stack under test.
var (
	refMu    sync.Mutex
	refCache = map[string][]byte{}
)

func referenceArtifact(t *testing.T, hash string) []byte {
	t.Helper()
	refMu.Lock()
	defer refMu.Unlock()
	if b, ok := refCache[hash]; ok {
		return b
	}
	for seed := 1; seed <= 8; seed++ {
		req, err := resultcache.ParseRequest(strings.NewReader(fmt.Sprintf(tinyPerf, seed)))
		if err != nil {
			t.Fatal(err)
		}
		h, err := req.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := refCache[h]; !ok {
			result, err := req.Execute(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			art, err := resultcache.NewArtifact(req, result)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := art.Encode()
			if err != nil {
				t.Fatal(err)
			}
			refCache[h] = enc
		}
	}
	b, ok := refCache[hash]
	if !ok {
		t.Fatalf("no reference artifact for hash %s", hash)
	}
	return b
}

// TestFleetBitIdentityOneVsFourWorkers runs the same job set through a
// 1-worker fleet and a 4-worker fleet (separate caches) and requires
// byte-equal artifacts — determinism is preserved across distribution
// and scheduling order.
func TestFleetBitIdentityOneVsFourWorkers(t *testing.T) {
	const njobs = 4

	one := newStackTTL(t, 10*time.Second)
	one.startWorker(nil)
	resultsOne := one.runJobs(njobs)
	one.assertNoLossNoDup(resultsOne, njobs)

	four := newStackTTL(t, 10*time.Second)
	for i := 0; i < 4; i++ {
		four.startWorker(nil)
	}
	resultsFour := four.runJobs(njobs)
	four.assertNoLossNoDup(resultsFour, njobs)

	if rem := four.counter("fleet.dispatch.remote"); rem != njobs {
		t.Fatalf("fleet.dispatch.remote = %d, want %d (no local leakage)", rem, njobs)
	}
	for hash, b1 := range resultsOne {
		b4, ok := resultsFour[hash]
		if !ok {
			t.Fatalf("4-worker fleet lacks artifact %s", hash)
		}
		if !bytes.Equal(b1, b4) {
			t.Fatalf("artifact %s differs between 1-worker and 4-worker fleets", hash)
		}
	}
}

// TestFleetSingleflightOverHTTP submits one request 8 times concurrently
// while the only worker holds it at a gate: the manager's singleflight
// coalesces the duplicates onto one job, which the fleet executes once.
func TestFleetSingleflightOverHTTP(t *testing.T) {
	s := newStackTTL(t, 10*time.Second)
	release := make(chan struct{})
	s.startGatedWorker(release)

	const n = 8
	body := fmt.Sprintf(tinyPerf, 5)
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(s.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var v jobs.JobView
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Error(err)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	close(release)
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		if id != ids[0] {
			t.Fatalf("submissions got job IDs %v, want one", ids)
		}
	}
	done := s.awaitDone(ids[0])
	if got := s.reg.Counter("jobs.dedup").Value(); got != n-1 {
		t.Fatalf("jobs.dedup = %d, want %d", got, n-1)
	}
	if rem := s.counter("fleet.dispatch.remote"); rem != 1 {
		t.Fatalf("fleet.dispatch.remote = %d, want 1", rem)
	}
	if ok := s.counter("fleet.completions.ok"); ok != 1 {
		t.Fatalf("fleet.completions.ok = %d, want 1", ok)
	}
	if !bytes.Equal(s.artifactBytes(done.Hash), referenceArtifact(t, done.Hash)) {
		t.Fatal("singleflight artifact diverged from a direct execution")
	}
}

// TestChaosWorkerKill: the first worker dies silently right after
// leasing (and a second dies after executing but before submitting).
// Both leases expire, both jobs requeue, and a healthy worker finishes
// them — nothing lost, nothing done twice.
func TestChaosWorkerKill(t *testing.T) {
	s := newStack(t)

	// Worker 1 dies on its first lease, before executing.
	killer := chaos.NewPlan(chaos.Script{0: chaos.Kill}, s.notifier)
	s.startWorker(killer)
	v := s.submit(fmt.Sprintf(tinyPerf, 1))
	s.waitFor(func() bool { return len(killer.Fired()) == 1 })
	s.waitFor(func() bool { return s.counter("fleet.leases.expired") >= 1 })

	// Worker 2 wastes a full execution, then dies before submitting.
	lateKiller := chaos.NewPlan(chaos.Script{0: chaos.KillBeforeComplete}, s.notifier)
	s.startWorker(lateKiller)
	s.waitFor(func() bool { return len(lateKiller.Fired()) == 1 })
	s.waitFor(func() bool { return s.counter("fleet.leases.expired") >= 2 })

	// A healthy worker picks up the requeue.
	s.startWorker(nil)
	done := s.awaitDone(v.ID)

	s.assertNoLossNoDup(map[string][]byte{done.Hash: s.artifactBytes(done.Hash)}, 1)
	if exp := s.counter("fleet.leases.expired"); exp < 2 {
		t.Fatalf("fleet.leases.expired = %d, want >= 2 (both kills detected)", exp)
	}
	if fired := killer.Fired(); fired[0] != chaos.Kill {
		t.Fatalf("killer fired %v, want [kill]", fired)
	}
	if fired := lateKiller.Fired(); fired[0] != chaos.KillBeforeComplete {
		t.Fatalf("late killer fired %v, want [kill-before-complete]", fired)
	}
}

// TestChaosStallZombie: the worker stops heartbeating, lets its lease
// expire, then submits the finished artifact anyway. The coordinator
// discards the zombie completion (410) and the requeued attempt — run
// clean by the same worker — is the one that counts.
func TestChaosStallZombie(t *testing.T) {
	s := newStack(t)
	plan := chaos.NewPlan(chaos.Script{0: chaos.Stall}, s.notifier)
	wreg := s.startWorker(plan)

	v := s.submit(fmt.Sprintf(tinyPerf, 2))
	done := s.awaitDone(v.ID)

	s.waitFor(func() bool { return s.counter("fleet.completions.zombie") >= 1 })
	s.assertNoLossNoDup(map[string][]byte{done.Hash: s.artifactBytes(done.Hash)}, 1)
	if exp := s.counter("fleet.leases.expired"); exp < 1 {
		t.Fatalf("fleet.leases.expired = %d, want >= 1", exp)
	}
	s.waitFor(func() bool { return wreg.Counter("sgworker.lease_lost").Value() >= 1 })
	if fired := plan.Fired(); len(fired) == 0 || fired[0] != chaos.Stall {
		t.Fatalf("plan fired %v, want stall first", fired)
	}
}

// TestChaosCorruptResult: the worker's first submission arrives with a
// flipped byte. Artifact verification rejects it (HTTP 400), the job
// requeues, and the clean retry lands — the corrupted bytes never reach
// the cache or a client.
func TestChaosCorruptResult(t *testing.T) {
	s := newStack(t)
	plan := chaos.NewPlan(chaos.Script{0: chaos.Corrupt}, s.notifier)
	wreg := s.startWorker(plan)

	v := s.submit(fmt.Sprintf(tinyPerf, 3))
	done := s.awaitDone(v.ID)

	s.assertNoLossNoDup(map[string][]byte{done.Hash: s.artifactBytes(done.Hash)}, 1)
	if rej := s.counter("fleet.completions.rejected"); rej != 1 {
		t.Fatalf("fleet.completions.rejected = %d, want 1", rej)
	}
	if rq := s.counter("fleet.requeues"); rq < 1 {
		t.Fatalf("fleet.requeues = %d, want >= 1", rq)
	}
	if wrej := wreg.Counter("sgworker.rejected").Value(); wrej != 1 {
		t.Fatalf("sgworker.rejected = %d, want 1", wrej)
	}
	if fired := plan.Fired(); fired[0] != chaos.Corrupt {
		t.Fatalf("plan fired %v, want corrupt first", fired)
	}
}

// TestChaosPartition: the worker is cut off from the coordinator the
// moment it holds a lease — heartbeats and the completion all vanish
// into the partition. The lease expires and a healthy worker redoes the
// job; the partitioned worker keeps knocking without ever corrupting
// state.
func TestChaosPartition(t *testing.T) {
	s := newStack(t)
	plan := chaos.NewPlan(chaos.Script{0: chaos.Partition}, s.notifier)
	wreg := s.startWorker(plan)

	v := s.submit(fmt.Sprintf(tinyPerf, 4))
	s.waitFor(func() bool { return len(plan.Fired()) == 1 })
	s.waitFor(func() bool { return s.counter("fleet.leases.expired") >= 1 })

	s.startWorker(nil)
	done := s.awaitDone(v.ID)

	s.assertNoLossNoDup(map[string][]byte{done.Hash: s.artifactBytes(done.Hash)}, 1)
	// The partitioned worker lost its lease (failed completion) and its
	// polls keep erroring against the cut link.
	s.waitFor(func() bool { return wreg.Counter("sgworker.lease_lost").Value() >= 1 })
	s.waitFor(func() bool { return wreg.Counter("sgworker.poll_errors").Value() >= 1 })
}

// TestFleetDegradedReadiness: a worker-less coordinator answers
// /healthz 200 (it is alive) but /readyz 503 (degraded to local
// execution); once a worker joins it turns ready — and jobs submitted
// while degraded still complete, locally.
func TestFleetDegradedReadiness(t *testing.T) {
	s := newStack(t)

	get := func(path string) int {
		resp, err := http.Get(s.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("degraded /healthz = %d, want 200", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("worker-less /readyz = %d, want 503", code)
	}

	// Degraded is not down: jobs run in-process.
	done := s.awaitDone(s.submit(fmt.Sprintf(tinyPerf, 5)).ID)
	if want := referenceArtifact(t, done.Hash); !bytes.Equal(s.artifactBytes(done.Hash), want) {
		t.Fatal("locally-degraded artifact diverged from reference")
	}
	if loc := s.counter("fleet.dispatch.local"); loc != 1 {
		t.Fatalf("fleet.dispatch.local = %d, want 1", loc)
	}

	s.startWorker(nil)
	s.waitFor(func() bool { return get("/readyz") == http.StatusOK })
}

// TestChaosKillMidRun: the worker dies mid-execution, right after its
// first warm checkpoint reached the coordinator. The lease expires, the
// job requeues, and the next worker's assignment ships the dead
// worker's checkpoint — it resumes from that progress (a warm-pool hit
// instead of a re-warm-up) and the artifact is still bit-identical to
// an uninterrupted local reference run.
func TestChaosKillMidRun(t *testing.T) {
	s := newStack(t)
	plan := chaos.NewPlan(chaos.Script{0: chaos.KillMidRun}, s.notifier)
	s.startWorker(plan)

	v := s.submit(fmt.Sprintf(tinyPerf, 6))
	s.waitFor(func() bool { return len(plan.Fired()) == 1 })
	s.waitFor(func() bool { return s.counter("fleet.leases.expired") >= 1 })
	if st := s.counter("fleet.checkpoints.stored"); st < 1 {
		t.Fatalf("fleet.checkpoints.stored = %d, want >= 1 (progress must survive the crash)", st)
	}

	wreg := s.startWorker(nil)
	done := s.awaitDone(v.ID)

	s.assertNoLossNoDup(map[string][]byte{done.Hash: s.artifactBytes(done.Hash)}, 1)
	if sh := s.counter("fleet.checkpoints.shipped"); sh < 1 {
		t.Fatalf("fleet.checkpoints.shipped = %d, want >= 1 (the requeued assignment carried no state)", sh)
	}
	s.waitFor(func() bool { return wreg.Counter("sgworker.warm_hits").Value() >= 1 })
	if fired := plan.Fired(); fired[0] != chaos.KillMidRun {
		t.Fatalf("plan fired %v, want kill-mid-run first", fired)
	}
}
