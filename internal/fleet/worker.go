// The stateless fleet worker: long-poll a lease, heartbeat it, execute
// on the deterministic pools, submit a self-verifying artifact. A worker
// owns no queue, no cache, and no journal — everything durable lives at
// the coordinator, which is what makes killing a worker at any point a
// recoverable event rather than a data loss.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"safeguard/internal/experiments"
	"safeguard/internal/jobs"
	"safeguard/internal/resultcache"
	"safeguard/internal/telemetry"
)

// ErrKilled is returned from a hook to crash the worker mid-job — the
// chaos harness's kill switch. The worker abandons everything without a
// word to the coordinator, exactly like a SIGKILL.
var ErrKilled = errors.New("fleet: worker killed")

// Hooks intercept worker lifecycle points. The zero value intercepts
// nothing; the chaos harness scripts faults through them. Every hook
// receives the lease ID and the 0-based ordinal of the lease within
// this worker's lifetime (the scripting key).
type Hooks struct {
	// OnLeased runs after a lease is acquired, before execution.
	// Returning ErrKilled crashes the worker on the spot.
	OnLeased func(leaseID string, ordinal int) error
	// SuppressRenew reports whether heartbeats for this lease should be
	// silently skipped (the stall fault).
	SuppressRenew func(leaseID string, ordinal int) bool
	// OnCheckpoint runs after the nth (0-based) checkpoint for this
	// lease has been accepted by the coordinator. Returning ErrKilled
	// crashes the worker between checkpoints — the kill-mid-run fault:
	// partial progress survives at the coordinator, the worker does not.
	OnCheckpoint func(leaseID string, ordinal, n int) error
	// BeforeComplete may delay (stall-past-lease), mutate (corruption),
	// or abort (ErrKilled) the artifact submission.
	BeforeComplete func(leaseID string, ordinal int, artifact []byte) ([]byte, error)
}

// WorkerConfig parameterizes a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (required).
	Coordinator string
	// Name identifies this worker in leases and logs (required).
	Name string
	// Client issues the HTTP requests (default: a timeout-free client,
	// since lease polls are long; chaos injects a partition transport).
	Client *http.Client
	// Run executes one request. The default is checkpoint-aware direct
	// execution: perf cells restore from the warm snapshots the
	// assignment shipped and post fresh ones to the coordinator, so a
	// job that outlives this worker resumes instead of restarting.
	// Workers stay stateless — the checkpoints live at the coordinator.
	Run jobs.Runner
	// ErrorBackoff is the pause after a failed poll (default 500ms).
	ErrorBackoff time.Duration
	// Telemetry receives the "sgworker.*" counters.
	Telemetry *telemetry.Registry
	// Hooks intercept lifecycle points (tests and chaos only).
	Hooks Hooks
}

// Worker is one stateless fleet executor.
type Worker struct {
	cfg WorkerConfig
	cl  *client
	n   int // leases acquired, the hook ordinal

	leases      *telemetry.Counter
	completes   *telemetry.Counter
	leaseLost   *telemetry.Counter
	rejected    *telemetry.Counter
	failures    *telemetry.Counter
	pollErrors  *telemetry.Counter
	checkpoints *telemetry.Counter
	warmHits    *telemetry.Counter
}

// NewWorker builds a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" || cfg.Name == "" {
		return nil, fmt.Errorf("fleet: worker needs a coordinator URL and a name")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.ErrorBackoff <= 0 {
		cfg.ErrorBackoff = 500 * time.Millisecond
	}
	reg := cfg.Telemetry
	return &Worker{
		cfg:         cfg,
		cl:          &client{base: cfg.Coordinator, hc: cfg.Client},
		leases:      reg.Counter("sgworker.leases"),
		completes:   reg.Counter("sgworker.completions"),
		leaseLost:   reg.Counter("sgworker.lease_lost"),
		rejected:    reg.Counter("sgworker.rejected"),
		failures:    reg.Counter("sgworker.failures"),
		pollErrors:  reg.Counter("sgworker.poll_errors"),
		checkpoints: reg.Counter("sgworker.checkpoints"),
		warmHits:    reg.Counter("sgworker.warm_hits"),
	}, nil
}

// Run polls, executes, and submits until ctx ends (or a chaos hook kills
// the worker). Poll errors back off and retry: a worker separated from
// its coordinator keeps knocking until the partition heals.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		a, err := w.cl.lease(w.cfg.Name)
		if err != nil {
			w.pollErrors.Inc()
			select {
			case <-time.After(w.cfg.ErrorBackoff):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		if a == nil {
			continue // empty poll window; go straight back
		}
		if err := w.execute(ctx, a); errors.Is(err, ErrKilled) {
			return err
		}
	}
}

// execute runs one assignment end to end.
func (w *Worker) execute(ctx context.Context, a *Assignment) error {
	ordinal := w.n
	w.n++
	w.leases.Inc()

	// Re-derive the assignment's identity before spending cycles on it: a
	// coordinator bug (or a tampering middlebox) must not make this worker
	// compute an artifact that can never verify.
	req, err := resultcache.ParseRequest(bytes.NewReader(a.Request))
	if err != nil {
		w.failures.Inc()
		_ = w.cl.fail(a.LeaseID, fmt.Sprintf("unparseable assignment: %v", err), false)
		return nil
	}
	hash, err := req.Hash()
	if err == nil && hash != a.Hash {
		err = fmt.Errorf("assignment hash %.12s… does not match its request (computed %.12s…)", a.Hash, hash)
	}
	if err != nil {
		w.failures.Inc()
		_ = w.cl.fail(a.LeaseID, err.Error(), false)
		return nil
	}

	if h := w.cfg.Hooks.OnLeased; h != nil {
		if err := h(a.LeaseID, ordinal); err != nil {
			return err // killed: abandon silently, like a crash would
		}
	}

	// Per-assignment observability state: the progress var collects the
	// executor's phase spans (heartbeats carry the latest), and the job
	// registry isolates this job's telemetry so the complete body can
	// carry it as the one copy the coordinator merges.
	pv := &telemetry.ProgressVar{}
	jobReg := telemetry.NewRegistry()

	// Heartbeat at a third of the TTL; a 410 means the lease is gone and
	// the execution is cancelled — the coordinator already requeued.
	execCtx, execCancel := context.WithCancel(ctx)
	defer execCancel()
	execCtx = telemetry.WithProgress(execCtx, pv)
	hbStop := make(chan struct{})
	defer close(hbStop)
	suppress := w.cfg.Hooks.SuppressRenew != nil && w.cfg.Hooks.SuppressRenew(a.LeaseID, ordinal)
	if !suppress {
		interval := time.Duration(a.LeaseTTLMS) * time.Millisecond / 3
		if interval <= 0 {
			interval = time.Millisecond
		}
		go w.heartbeat(a.LeaseID, interval, hbStop, execCancel, pv)
	}

	run := w.cfg.Run
	var store *leaseWarmStore
	if run == nil {
		store = &leaseWarmStore{w: w, leaseID: a.LeaseID, ordinal: ordinal, shipped: a.Checkpoints, kill: execCancel}
		run = func(ctx context.Context, req *resultcache.Request) (json.RawMessage, error) {
			return req.ExecuteWarm(ctx, jobReg, store)
		}
	}
	result, err := run(execCtx, req)
	if store != nil && store.killed() {
		return ErrKilled // scripted kill between checkpoints: crash silently
	}
	if execCtx.Err() != nil && ctx.Err() == nil {
		// Lease lost mid-run: the job belongs to someone else now.
		w.leaseLost.Inc()
		return nil
	}
	if err != nil {
		w.failures.Inc()
		_ = w.cl.fail(a.LeaseID, err.Error(), jobs.IsTransient(err))
		return nil
	}
	art, err := resultcache.NewArtifact(req, result)
	if err != nil {
		w.failures.Inc()
		_ = w.cl.fail(a.LeaseID, fmt.Sprintf("artifact build: %v", err), false)
		return nil
	}
	enc, err := art.Encode()
	if err != nil {
		w.failures.Inc()
		_ = w.cl.fail(a.LeaseID, fmt.Sprintf("artifact encode: %v", err), false)
		return nil
	}
	if h := w.cfg.Hooks.BeforeComplete; h != nil {
		if enc, err = h(a.LeaseID, ordinal, enc); err != nil {
			return err // killed between execute and submit
		}
	}
	// Ship the job's telemetry and final progress alongside the artifact.
	// The envelope wraps whatever BeforeComplete produced, so the chaos
	// corruption fault still mutates the artifact bytes the coordinator
	// verifies.
	env := completeEnvelope{Artifact: enc}
	snap := jobReg.Snapshot()
	env.Telemetry = &snap
	if _, p, ok := pv.Load(); ok {
		env.Progress = &p
	}
	code, err := w.cl.complete(a.LeaseID, env)
	switch {
	case err != nil:
		// Partitioned from the coordinator: the lease will expire and the
		// job requeues elsewhere. Nothing to resubmit — drop it.
		w.leaseLost.Inc()
	case code == http.StatusOK:
		w.completes.Inc()
		// Merge on acceptance only: a zombie or rejected completion never
		// counted, so its telemetry must not either.
		w.cfg.Telemetry.Merge(jobReg)
	case code == http.StatusGone:
		w.leaseLost.Inc() // zombie: our lease expired while we worked
	default:
		w.rejected.Inc() // the coordinator refused our bytes
	}
	return nil
}

// heartbeat renews the lease until stop closes; a gone lease cancels the
// execution via execCancel. Transport errors are retried on the next
// tick — heartbeats through a flaky network are exactly when retrying
// matters. Each renew piggybacks the job's latest progress span, so the
// coordinator sees in-flight work without any extra round trips.
func (w *Worker) heartbeat(leaseID string, interval time.Duration, stop <-chan struct{}, execCancel context.CancelFunc, pv *telemetry.ProgressVar) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			rr := renewRequest{Worker: w.cfg.Name}
			if _, p, ok := pv.Load(); ok {
				rr.Progress = &p
			}
			ok, err := w.cl.renew(leaseID, rr)
			if err != nil {
				continue
			}
			if !ok {
				execCancel()
				return
			}
		}
	}
}

// leaseWarmStore adapts the fleet checkpoint protocol to the
// experiments warm-start pool. Gets are served from the snapshots the
// assignment shipped (a previous holder's progress); puts post to the
// coordinator so the job's next holder resumes where this one stops.
// Restoring a pooled snapshot is bit-identical to a cold run, so a
// resumed job's artifact is indistinguishable from an uninterrupted one.
type leaseWarmStore struct {
	w       *Worker
	leaseID string
	ordinal int
	shipped map[string][]byte // read-only after assignment decode
	kill    context.CancelFunc

	mu   sync.Mutex
	n    int // checkpoints accepted, the OnCheckpoint hook counter
	dead bool
}

// warmKeyString is the wire encoding of a pool key: WarmKey has fixed
// field order, so its JSON is canonical.
func warmKeyString(key experiments.WarmKey) (string, error) {
	b, err := json.Marshal(key)
	return string(b), err
}

// GetWarm implements experiments.WarmStore from the shipped checkpoints.
func (s *leaseWarmStore) GetWarm(key experiments.WarmKey) ([]byte, bool, error) {
	ks, err := warmKeyString(key)
	if err != nil {
		return nil, false, err
	}
	data, ok := s.shipped[ks]
	if ok {
		s.w.warmHits.Inc()
	}
	return data, ok, nil
}

// PutWarm implements experiments.WarmStore by posting to the
// coordinator. Errors matter only to the pool (which treats deposits as
// best-effort); a 410 additionally means the lease is dead, which the
// heartbeat loop will discover on its own.
func (s *leaseWarmStore) PutWarm(key experiments.WarmKey, snapshot []byte) error {
	ks, err := warmKeyString(key)
	if err != nil {
		return err
	}
	code, err := s.w.cl.checkpoint(s.leaseID, ks, snapshot)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("fleet: checkpoint post: HTTP %d", code)
	}
	s.w.checkpoints.Inc()
	s.mu.Lock()
	n := s.n
	s.n++
	s.mu.Unlock()
	if h := s.w.cfg.Hooks.OnCheckpoint; h != nil {
		if herr := h(s.leaseID, s.ordinal, n); errors.Is(herr, ErrKilled) {
			s.mu.Lock()
			s.dead = true
			s.mu.Unlock()
			s.kill()
			return ErrKilled
		}
	}
	return nil
}

func (s *leaseWarmStore) killed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead
}
