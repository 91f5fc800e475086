package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safeguard/internal/resultcache"
	"safeguard/internal/telemetry"
)

// reqN builds a distinct normalized request per seed without running
// any simulation (jobs unit tests use stub runners).
func reqN(t testing.TB, seed uint64) *resultcache.Request {
	t.Helper()
	r := &resultcache.Request{Kind: resultcache.KindPerf, Perf: &resultcache.PerfRequest{
		Schemes:      []string{"SafeGuard"},
		Workloads:    []string{"leela"},
		Seeds:        []uint64{seed},
		InstrPerCore: 1500,
		WarmupInstr:  500,
	}}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	return r
}

// okRunner returns a canned result instantly.
func okRunner(json.RawMessage) Runner {
	return func(context.Context, *resultcache.Request) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	}
}

// gateRunner blocks every execution until release is closed, and counts
// executions.
type gateRunner struct {
	release chan struct{}
	started chan struct{} // one send per execution start
	count   atomic.Int64
}

func newGateRunner() *gateRunner {
	return &gateRunner{release: make(chan struct{}), started: make(chan struct{}, 1024)}
}

func (g *gateRunner) run(ctx context.Context, _ *resultcache.Request) (json.RawMessage, error) {
	g.count.Add(1)
	g.started <- struct{}{}
	select {
	case <-g.release:
		return json.RawMessage(`{}`), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func waitState(t *testing.T, m *Manager, id string, want State) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, err := m.WaitJob(ctx, id)
	if err != nil {
		t.Fatalf("WaitJob(%s): %v", id, err)
	}
	if v.State != want {
		t.Fatalf("job %s state = %s, want %s (err %q)", id, v.State, want, v.Error)
	}
	return v
}

func TestSubmitRunsToCompletion(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	m := NewManager(Config{Runner: okRunner(nil), Telemetry: reg})
	defer m.Close()
	v, err := m.Submit(reqN(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || !resultcache.ValidHash(v.Hash) {
		t.Fatalf("bad view %+v", v)
	}
	done := waitState(t, m, v.ID, StateDone)
	if done.Result != "/v1/results/"+v.Hash {
		t.Fatalf("result path = %q", done.Result)
	}
	snap := reg.Snapshot()
	if snap.Counters["jobs.submitted"] != 1 || snap.Counters["jobs.completed"] != 1 {
		t.Fatalf("counters = %v", snap.Counters)
	}
}

// Singleflight: N concurrent submits of the same config must coalesce
// onto one job and execute exactly once.
func TestSingleflightExecutesOnce(t *testing.T) {
	t.Parallel()
	g := newGateRunner()
	reg := telemetry.NewRegistry()
	m := NewManager(Config{Workers: 4, Runner: g.run, Telemetry: reg})
	defer m.Close()

	first, err := m.Submit(reqN(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	<-g.started // job is running, not just queued
	var wg sync.WaitGroup
	ids := make([]string, 16)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := m.Submit(reqN(t, 7))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if id != first.ID {
			t.Fatalf("submit %d created job %s; want dedup onto %s", i, id, first.ID)
		}
	}
	close(g.release)
	waitState(t, m, first.ID, StateDone)
	if n := g.count.Load(); n != 1 {
		t.Fatalf("runner executed %d times, want 1", n)
	}
	if n := reg.Snapshot().Counters["jobs.dedup"]; n != 16 {
		t.Fatalf("dedup counter = %d", n)
	}
}

// After a job completes, resubmitting the same config starts a fresh
// job (singleflight covers in-flight work only; the cache covers done
// work).
func TestSingleflightReleasesOnCompletion(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{Runner: okRunner(nil)})
	defer m.Close()
	v1, err := m.Submit(reqN(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v1.ID, StateDone)
	v2, err := m.Submit(reqN(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if v2.ID == v1.ID {
		t.Fatal("completed job still absorbing submissions")
	}
	waitState(t, m, v2.ID, StateDone)
}

func TestQueueFullBackpressure(t *testing.T) {
	t.Parallel()
	g := newGateRunner()
	reg := telemetry.NewRegistry()
	m := NewManager(Config{Workers: 1, QueueDepth: 2, Runner: g.run, Telemetry: reg})
	defer m.Close()
	// One running + two queued fills the system.
	var accepted []JobView
	for i := uint64(0); i < 3; i++ {
		v, err := m.Submit(reqN(t, i+1))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		accepted = append(accepted, v)
		if i == 0 {
			<-g.started
		}
	}
	if _, err := m.Submit(reqN(t, 99)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit err = %v, want ErrQueueFull", err)
	}
	close(g.release)
	for _, v := range accepted {
		waitState(t, m, v.ID, StateDone)
	}
	if n := reg.Snapshot().Counters["jobs.rejected.full"]; n != 1 {
		t.Fatalf("rejected.full = %d", n)
	}
}

func TestTransientRetrySucceeds(t *testing.T) {
	t.Parallel()
	var calls atomic.Int64
	reg := telemetry.NewRegistry()
	m := NewManager(Config{
		MaxAttempts: 3, RetryBackoff: time.Microsecond, Telemetry: reg,
		Runner: func(context.Context, *resultcache.Request) (json.RawMessage, error) {
			if calls.Add(1) < 3 {
				return nil, Transient(fmt.Errorf("flaky io"))
			}
			return json.RawMessage(`{}`), nil
		},
	})
	defer m.Close()
	v, err := m.Submit(reqN(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, v.ID, StateDone)
	if done.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", done.Attempts)
	}
	if n := reg.Snapshot().Counters["jobs.retried"]; n != 2 {
		t.Fatalf("retried = %d", n)
	}
}

func TestTransientRetryExhausted(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{
		MaxAttempts: 2, RetryBackoff: time.Microsecond,
		Runner: func(context.Context, *resultcache.Request) (json.RawMessage, error) {
			return nil, Transient(fmt.Errorf("still down"))
		},
	})
	defer m.Close()
	v, err := m.Submit(reqN(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, m, v.ID, StateFailed)
	if failed.Attempts != 2 || failed.Error == "" {
		t.Fatalf("failed view = %+v", failed)
	}
}

// Permanent errors must not be retried: a deterministic simulator fails
// identically every time.
func TestPermanentErrorNoRetry(t *testing.T) {
	t.Parallel()
	var calls atomic.Int64
	m := NewManager(Config{
		MaxAttempts: 5, RetryBackoff: time.Microsecond,
		Runner: func(context.Context, *resultcache.Request) (json.RawMessage, error) {
			calls.Add(1)
			return nil, fmt.Errorf("bad config")
		},
	})
	defer m.Close()
	v, err := m.Submit(reqN(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateFailed)
	if n := calls.Load(); n != 1 {
		t.Fatalf("permanent error executed %d times, want 1", n)
	}
}

func TestTransientHelpers(t *testing.T) {
	t.Parallel()
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) != nil")
	}
	base := fmt.Errorf("io")
	tr := Transient(base)
	if !IsTransient(tr) || !errors.Is(tr, base) {
		t.Fatal("Transient lost its wrapped error")
	}
	if IsTransient(base) || IsTransient(nil) {
		t.Fatal("unwrapped error reported transient")
	}
	if IsTransient(fmt.Errorf("ctx: %w", Transient(base))) != true {
		t.Fatal("wrapped transient not detected")
	}
}

// Drain with time to spare completes every accepted job.
func TestDrainCompletesAllAccepted(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	m := NewManager(Config{Workers: 2, Runner: okRunner(nil), Telemetry: reg})
	defer m.Close()
	n := 8
	for i := 0; i < n; i++ {
		if _, err := m.Submit(reqN(t, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := m.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n || rep.Failed != 0 || rep.Persisted != 0 || rep.Running != 0 {
		t.Fatalf("drain report = %+v", rep)
	}
	if _, err := m.Submit(reqN(t, 99)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit err = %v, want ErrDraining", err)
	}
	if nr := reg.Snapshot().Counters["jobs.rejected.draining"]; nr != 1 {
		t.Fatalf("rejected.draining = %d", nr)
	}
}

// Drain out of time persists queued jobs; the journal resubmits them.
func TestDrainPersistsQueuedAndResumes(t *testing.T) {
	t.Parallel()
	pending := filepath.Join(t.TempDir(), "pending.json")
	g := newGateRunner()
	reg := telemetry.NewRegistry()
	m := NewManager(Config{
		Workers: 1, QueueDepth: 8, PendingPath: pending,
		Runner: g.run, Telemetry: reg,
	})
	defer m.Close()
	var views []JobView
	for i := uint64(0); i < 4; i++ {
		v, err := m.Submit(reqN(t, i+1))
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
		if i == 0 {
			<-g.started
		}
	}
	// The drain deadline fires while job 1 is still running and 2..4 are
	// queued; release the gate so the running job can finish.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	go func() { time.Sleep(100 * time.Millisecond); close(g.release) }()
	rep, err := m.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Persisted != 3 {
		t.Fatalf("drain report = %+v, want 3 persisted", rep)
	}
	if rep.InFlightJournaled != 1 {
		t.Fatalf("drain report = %+v, want the running job journaled", rep)
	}
	for _, v := range views[1:] {
		waitState(t, m, v.ID, StatePersisted)
	}
	waitState(t, m, views[0].ID, StateDone)

	// No accepted job was dropped: the journal covers the 3 queued jobs
	// plus the one still running at the deadline.
	reqs, err := LoadPendingJobs(pending, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 4 {
		t.Fatalf("journal holds %d requests, want 4", len(reqs))
	}
	hashes := map[string]bool{}
	for _, r := range reqs {
		h, err := r.Request.Hash()
		if err != nil {
			t.Fatal(err)
		}
		hashes[h] = true
	}
	for _, v := range views {
		if !hashes[v.Hash] {
			t.Fatalf("job %s (%s) missing from journal", v.ID, v.Hash)
		}
	}
	// LoadPendingJobs consumed the journal.
	if again, err := LoadPendingJobs(pending, reg); err != nil || len(again) != 0 {
		t.Fatalf("second LoadPendingJobs = (%v, %v), want empty", again, err)
	}
	if n := reg.Snapshot().Counters["jobs.persisted"]; n != 3 {
		t.Fatalf("persisted counter = %d", n)
	}
}

func TestDrainTimeoutWithoutPendingPathFails(t *testing.T) {
	t.Parallel()
	g := newGateRunner()
	m := NewManager(Config{Workers: 1, QueueDepth: 4, Runner: g.run})
	defer m.Close()
	for i := uint64(0); i < 2; i++ {
		if _, err := m.Submit(reqN(t, i+1)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-g.started
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	defer close(g.release)
	if _, err := m.Drain(ctx); err == nil {
		t.Fatal("drain dropped queued jobs silently with no PendingPath")
	}
}

// journalFile writes a journal body into a fresh dir and returns its path.
func journalFile(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "pending.json")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadPendingMissingIsEmptyResume(t *testing.T) {
	t.Parallel()
	reqs, err := LoadPendingJobs(filepath.Join(t.TempDir(), "absent.json"), nil)
	if err != nil || reqs != nil {
		t.Fatalf("missing journal = (%v, %v), want empty resume", reqs, err)
	}
}

// A truncated journal (a crash mid-write, a torn disk) must degrade to a
// counted skip — quarantined, never a startup failure.
func TestLoadPendingTruncatedJournalDegrades(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	// A real journal cut off mid-stream, exactly what a full disk leaves.
	valid, err := json.Marshal(pendingFile{Schema: pendingSchema, Requests: []*resultcache.Request{reqN(t, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	p := journalFile(t, string(valid[:len(valid)/2]))
	reqs, err := LoadPendingJobs(p, reg)
	if err != nil || len(reqs) != 0 {
		t.Fatalf("truncated journal = (%v, %v), want counted empty resume", reqs, err)
	}
	if n := reg.Snapshot().Counters["jobs.journal.corrupt"]; n != 1 {
		t.Fatalf("journal.corrupt = %d, want 1", n)
	}
	// The bad bytes are quarantined off the boot path but kept as evidence.
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatal("corrupt journal still on the boot path")
	}
	if _, err := os.Stat(p + ".corrupt"); err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	// The next boot is clean: nothing left to trip over.
	if reqs, err := LoadPendingJobs(p, reg); err != nil || len(reqs) != 0 {
		t.Fatalf("reboot after quarantine = (%v, %v)", reqs, err)
	}
}

// A journal from a build that recorded checkpoint refs still loads: the
// stale "checkpoint" key is ignored and both requests resume.
func TestLoadPendingIgnoresStaleCheckpointKey(t *testing.T) {
	t.Parallel()
	first, second := reqN(t, 1), reqN(t, 2)
	reqs, err := LoadPendingJobs(journalFile(t, string(staleCheckpointJournal(t, first, second))), nil)
	if err != nil || len(reqs) != 2 {
		t.Fatalf("stale-checkpoint journal = (%d entries, %v), want 2", len(reqs), err)
	}
	for i, want := range []*resultcache.Request{first, second} {
		wh, err := want.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h, err := reqs[i].Request.Hash(); err != nil || h != wh {
			t.Fatalf("entry %d hashes to %s (%v), want %s", i, h, err, wh)
		}
	}
}

// A tampered journal — valid JSON, but a request that no longer
// validates — skips the bad entry with a counter and resumes the rest.
func TestLoadPendingTamperedRequestSkipped(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	good := reqN(t, 7)
	raw, err := json.Marshal(pendingFile{Schema: pendingSchema, Requests: []*resultcache.Request{
		{Kind: "fuzz"}, good, {Kind: resultcache.KindPerf, Perf: &resultcache.PerfRequest{Schemes: []string{"tetraguard"}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	p := journalFile(t, string(raw))
	reqs, err := LoadPendingJobs(p, reg)
	if err != nil {
		t.Fatalf("tampered journal failed the boot: %v", err)
	}
	if len(reqs) != 1 {
		t.Fatalf("resumed %d requests, want the 1 valid one", len(reqs))
	}
	wantHash, err := good.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h, err := reqs[0].Request.Hash(); err != nil || h != wantHash {
		t.Fatalf("resumed the wrong request (%s, %v)", h, err)
	}
	if n := reg.Snapshot().Counters["jobs.journal.skipped"]; n != 2 {
		t.Fatalf("journal.skipped = %d, want 2", n)
	}
	// A foreign schema is whole-file corruption, not a partial skip.
	p2 := journalFile(t, `{"schema":"sgserve-pending/999","requests":[]}`)
	if reqs, err := LoadPendingJobs(p2, reg); err != nil || len(reqs) != 0 {
		t.Fatalf("future schema = (%v, %v), want counted empty resume", reqs, err)
	}
	if n := reg.Snapshot().Counters["jobs.journal.corrupt"]; n != 1 {
		t.Fatalf("journal.corrupt = %d, want 1", n)
	}
}

// The retry clock is injectable and the backoff carries a deterministic
// ±20% jitter: same job, same schedule; different jobs, spread offsets.
func TestRetryBackoffJitteredAndClockInjectable(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	var delays []time.Duration
	after := func(d time.Duration) <-chan time.Time {
		mu.Lock()
		delays = append(delays, d)
		mu.Unlock()
		ch := make(chan time.Time, 1)
		ch <- time.Time{}
		return ch
	}
	var calls atomic.Int64
	base := 100 * time.Millisecond
	m := NewManager(Config{
		MaxAttempts: 3, RetryBackoff: base, AfterFunc: after,
		Runner: func(context.Context, *resultcache.Request) (json.RawMessage, error) {
			if calls.Add(1) < 3 {
				return nil, Transient(fmt.Errorf("flaky io"))
			}
			return json.RawMessage(`{}`), nil
		},
	})
	defer m.Close()
	req := reqN(t, 1)
	hash, err := req.Hash()
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateDone)
	mu.Lock()
	defer mu.Unlock()
	if len(delays) != 2 {
		t.Fatalf("retry clock fired %d times, want 2", len(delays))
	}
	for i, d := range delays {
		// Attempt i+2: base << i, jittered into [80%, 120%].
		lo, hi := (base<<i)*8/10, (base<<i)*12/10
		if d < lo || d > hi {
			t.Errorf("delay %d = %s outside [%s, %s]", i, d, lo, hi)
		}
		if want := JitteredBackoff(base, i+2, hash); d != want {
			t.Errorf("delay %d = %s, want deterministic %s", i, d, want)
		}
	}
}

func TestJitteredBackoffSpreadsHashes(t *testing.T) {
	t.Parallel()
	base := time.Second
	distinct := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		d := JitteredBackoff(base, 2, fmt.Sprintf("hash-%d", i))
		if d < base*8/10 || d > base*12/10 {
			t.Fatalf("jitter %s outside ±20%% of %s", d, base)
		}
		distinct[d] = true
	}
	if len(distinct) < 16 {
		t.Fatalf("only %d distinct backoffs over 64 hashes; herding persists", len(distinct))
	}
	// Determinism: the schedule for one job never moves between runs.
	if JitteredBackoff(base, 3, "h") != JitteredBackoff(base, 3, "h") {
		t.Fatal("jitter is not deterministic")
	}
}

func TestCachedRunnerStoresAndServes(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	cache, err := resultcache.New(resultcache.Options{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	run := CachedRunner(cache, nil)
	req := reqN(t, 1)
	r1, err := run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Second call must be served from the cache (hit counter moves) and
	// be byte-identical.
	r2, err := run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if string(r1) != string(r2) {
		t.Fatal("cache hit differs from fresh run")
	}
	if n := reg.Snapshot().Counters["resultcache.hit.mem"]; n != 1 {
		t.Fatalf("hit.mem = %d", n)
	}
}

func TestWaitJobUnknownAndCancelled(t *testing.T) {
	t.Parallel()
	g := newGateRunner()
	m := NewManager(Config{Runner: g.run})
	defer m.Close()
	defer close(g.release)
	if _, err := m.WaitJob(context.Background(), "j-999999"); err == nil {
		t.Fatal("unknown job id accepted")
	}
	v, err := m.Submit(reqN(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.WaitJob(ctx, v.ID); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait err = %v", err)
	}
}

func TestJobLookup(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{Runner: okRunner(nil)})
	defer m.Close()
	if _, ok := m.Job("nope"); ok {
		t.Fatal("phantom job found")
	}
	v, err := m.Submit(reqN(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.Job(v.ID)
	if !ok || got.Hash != v.Hash {
		t.Fatalf("Job(%s) = (%+v, %v)", v.ID, got, ok)
	}
}

// TestListKeepsSubmissionOrderPastAMillion: List orders by submission,
// not by id string — "j-1000000" must follow "j-999999".
func TestListKeepsSubmissionOrderPastAMillion(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{Runner: okRunner(nil)})
	defer m.Close()
	m.mu.Lock()
	m.seq = 999_998
	m.mu.Unlock()
	var want []string
	for i := uint64(1); i <= 3; i++ {
		v, err := m.Submit(reqN(t, i))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, v.ID)
		waitState(t, m, v.ID, StateDone)
	}
	views, total := m.List(0, 0)
	var got []string
	for _, v := range views {
		got = append(got, v.ID)
	}
	if total != 3 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("List = %v (total %d), want submission order %v", got, total, want)
	}
	if want[1] != "j-1000000" {
		t.Fatalf("second id %q, want j-1000000", want[1])
	}
}
