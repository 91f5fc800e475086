// Package fleet scales sgserve from one process to a coordinator plus N
// stateless workers without giving up a single correctness property the
// single-process service has. The coordinator owns the job queue and the
// result cache; workers own nothing — they long-poll for leases, execute
// on the same deterministic pools, and submit self-verifying artifacts.
//
// Robustness is the design center, built from four mechanisms:
//
//   - Leases, not assignments. A worker holds a job only while it
//     heartbeats; a crash, stall, or partition simply stops the
//     heartbeats, the lease expires, and the job requeues through the
//     jobs.Manager's Transient retry path (bounded attempts, jittered
//     backoff). No accepted job is ever lost to a dead worker.
//   - Verified completion. A worker submits the full resultcache
//     artifact in a completion envelope; the coordinator re-runs
//     ReadArtifact's invariant chain (schema, request→hash binding, wire
//     shape) and requires the artifact hash to equal the leased job's
//     hash. A corrupted or malicious result is rejected and the job
//     requeues.
//   - Idempotent zombie handling. Lease IDs are single-use: once a lease
//     is expired or completed, late renews and completions from a worker
//     that "came back from the dead" get 410 Gone and are counted, never
//     double-applied. Determinism makes the discard safe — the requeued
//     execution produces bit-identical bytes.
//   - Graceful degradation. With zero live workers the coordinator runs
//     jobs in-process through its Local runner, and reports itself
//     not-ready so load balancers prefer fully-crewed coordinators.
//
// Because every worker executes the same block-deterministic pools, the
// fleet's results are byte-identical to the single-process service — the
// e2e suite proves it across 1-worker and 4-worker fleets.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"safeguard/internal/jobs"
	"safeguard/internal/resultcache"
	"safeguard/internal/telemetry"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Local executes jobs in-process when no workers are live (required:
	// the degraded mode IS the single-process service).
	Local jobs.Runner
	// Cache, when set, receives verified remote artifacts and answers
	// repeat dispatches without touching the fleet.
	Cache *resultcache.Cache
	// LeaseTTL is how long a worker may go without a heartbeat before
	// its job requeues (default 15s).
	LeaseTTL time.Duration
	// PollWait bounds how long a lease request is held open waiting for
	// work before answering 204 (default 10s).
	PollWait time.Duration
	// WorkerTTL is the liveness horizon: a worker counts as live if it
	// polled or renewed within it (default 2*PollWait + LeaseTTL).
	WorkerTTL time.Duration
	// SweepEvery is the expiry scan interval (default LeaseTTL/4).
	SweepEvery time.Duration
	// Telemetry receives the "fleet.*" gauges and counters, plus the
	// executor telemetry of every verified remote completion, merged
	// exactly once per job.
	Telemetry *telemetry.Registry
	// Bus, when set, receives checkpoint events (keyed by job hash —
	// the coordinator does not know manager job IDs). All other
	// lifecycle events are the jobs.Manager's to publish; a single
	// publisher per event type keeps streams duplicate-free.
	Bus *telemetry.Bus
	// Now is the lease clock (default time.Now; tests inject a fake).
	Now func() time.Time
	// ExpireHook, when set, is called (outside the coordinator lock)
	// with each lease ID the sweeper expires — the chaos harness uses it
	// to stall workers deterministically past their lease.
	ExpireHook func(leaseID string)
}

// dispatch states.
const (
	dispatchQueued = iota
	dispatchLeased
	dispatchDone
)

// dispatch is one job offered to the fleet. All fields after done are
// written once, guarded by the coordinator lock, before done closes.
type dispatch struct {
	hash    string
	canon   []byte // canonical request JSON shipped to the worker
	state   int
	leaseID string
	enq     time.Time
	done    chan struct{}
	result  json.RawMessage
	err     error
	// pv is the submitting job's progress cell (captured from Run's
	// context); heartbeat and completion reports write through it, which
	// is how remote progress reaches the manager's event bus.
	pv *telemetry.ProgressVar
}

// lease is one worker's claim on a dispatch.
type lease struct {
	id       string
	worker   string
	d        *dispatch
	deadline time.Time
	terminal bool
	doneAt   time.Time
}

// Coordinator owns the fleet-side queue, leases, and worker registry.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	pending []*dispatch // FIFO of unleased work
	leases  map[string]*lease
	workers map[string]time.Time // name -> last seen
	// ckpts holds the warm snapshots workers posted per job hash. They
	// outlive the lease (and the dispatch) that posted them — surviving
	// worker death is their entire purpose — and are dropped once the
	// job completes or fails permanently.
	ckpts   map[string]map[string][]byte
	wake    chan struct{} // closed+replaced when work arrives
	expired []string      // lease IDs awaiting ExpireHook delivery
	seq     int
	closed  bool
	stop    chan struct{}
	swept   sync.WaitGroup

	workersLive  *telemetry.Gauge
	leasesOut    *telemetry.Gauge
	leasesGrant  *telemetry.Counter
	leasesRenew  *telemetry.Counter
	leasesExpire *telemetry.Counter
	requeues     *telemetry.Counter
	completeOK   *telemetry.Counter
	completeZomb *telemetry.Counter
	completeRej  *telemetry.Counter
	renewZombie  *telemetry.Counter
	failReported *telemetry.Counter
	runRemote    *telemetry.Counter
	runLocal     *telemetry.Counter
	cachePutErr  *telemetry.Counter
	ckptStored   *telemetry.Counter
	ckptShipped  *telemetry.Counter
	ckptZombie   *telemetry.Counter
}

// New builds a coordinator and starts its expiry sweeper.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Local == nil {
		return nil, fmt.Errorf("fleet: Config.Local is required (it is the degraded mode)")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 10 * time.Second
	}
	if cfg.WorkerTTL <= 0 {
		cfg.WorkerTTL = 2*cfg.PollWait + cfg.LeaseTTL
	}
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = cfg.LeaseTTL / 4
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	reg := cfg.Telemetry
	c := &Coordinator{
		cfg:          cfg,
		leases:       make(map[string]*lease),
		workers:      make(map[string]time.Time),
		ckpts:        make(map[string]map[string][]byte),
		wake:         make(chan struct{}),
		stop:         make(chan struct{}),
		workersLive:  reg.Gauge("fleet.workers.live"),
		leasesOut:    reg.Gauge("fleet.leases.outstanding"),
		leasesGrant:  reg.Counter("fleet.leases.granted"),
		leasesRenew:  reg.Counter("fleet.leases.renewed"),
		leasesExpire: reg.Counter("fleet.leases.expired"),
		requeues:     reg.Counter("fleet.requeues"),
		completeOK:   reg.Counter("fleet.completions.ok"),
		completeZomb: reg.Counter("fleet.completions.zombie"),
		completeRej:  reg.Counter("fleet.completions.rejected"),
		renewZombie:  reg.Counter("fleet.renews.zombie"),
		failReported: reg.Counter("fleet.failures.reported"),
		runRemote:    reg.Counter("fleet.dispatch.remote"),
		runLocal:     reg.Counter("fleet.dispatch.local"),
		cachePutErr:  reg.Counter("fleet.cache.put_error"),
		ckptStored:   reg.Counter("fleet.checkpoints.stored"),
		ckptShipped:  reg.Counter("fleet.checkpoints.shipped"),
		ckptZombie:   reg.Counter("fleet.checkpoints.zombie"),
	}
	c.swept.Add(1)
	go c.sweeper()
	return c, nil
}

// Close stops the sweeper and fails outstanding dispatches so no waiter
// hangs. Call after the job manager has drained.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	for _, d := range c.pending {
		c.finishLocked(d, nil, fmt.Errorf("fleet: coordinator closed"))
	}
	c.pending = nil
	for _, l := range c.leases {
		if !l.terminal {
			c.terminalizeLocked(l)
			c.finishLocked(l.d, nil, fmt.Errorf("fleet: coordinator closed"))
		}
	}
	c.wakePollersLocked()
	c.mu.Unlock()
	c.swept.Wait()
}

// Ready reports nil when at least one worker is live — the readiness
// check cmd/sgserve plugs into /readyz so a worker-less-degraded
// coordinator sheds load-balancer traffic while staying healthy.
func (c *Coordinator) Ready() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.liveWorkersLocked(c.cfg.Now()) == 0 {
		return fmt.Errorf("fleet: no live workers (degraded to local execution)")
	}
	return nil
}

// Run is the jobs.Runner the coordinator hands to the jobs.Manager: it
// answers from the cache, offers the job to the fleet, and falls back to
// local execution when no workers are live. Duplicate submissions never
// reach it — the manager's singleflight admits one job per hash and runs
// its attempts one after another. Lease expiry and rejected results
// surface as jobs.Transient errors, so the manager's bounded, jittered
// retry loop is the requeue mechanism. The cache check catches a result
// verified after its lease expired: the retry finds it stored.
func (c *Coordinator) Run(ctx context.Context, req *resultcache.Request) (json.RawMessage, error) {
	hash, err := req.Hash()
	if err != nil {
		return nil, err
	}
	if c.cfg.Cache != nil {
		if a, ok, cerr := c.cfg.Cache.Get(hash); cerr == nil && ok {
			return a.Result, nil
		}
	}
	now := c.cfg.Now()
	c.mu.Lock()
	if c.closed || c.liveWorkersLocked(now) == 0 {
		c.mu.Unlock()
		c.runLocal.Inc()
		return c.cfg.Local(ctx, req)
	}
	canon, err := req.CanonicalJSON()
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	d := &dispatch{hash: hash, canon: canon, state: dispatchQueued, enq: now, done: make(chan struct{}), pv: telemetry.ProgressFromContext(ctx)}
	c.pending = append(c.pending, d)
	c.wakePollersLocked()
	c.mu.Unlock()
	c.runRemote.Inc()
	// A cancelled waiter does not cancel the dispatch: a completed result
	// still lands in the cache.
	select {
	case <-d.done:
		return d.result, d.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// acquire hands the oldest queued dispatch to a polling worker, holding
// the request open up to PollWait. A nil assignment means no work (204).
func (c *Coordinator) acquire(ctx context.Context, worker string) (*Assignment, error) {
	deadline := time.Now().Add(c.cfg.PollWait)
	for {
		now := c.cfg.Now()
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, nil
		}
		c.workers[worker] = now
		c.sweepLocked(now)
		if len(c.pending) > 0 {
			d := c.pending[0]
			c.pending = c.pending[1:]
			c.seq++
			l := &lease{
				id:       fmt.Sprintf("l-%08d", c.seq),
				worker:   worker,
				d:        d,
				deadline: now.Add(c.cfg.LeaseTTL),
			}
			c.leases[l.id] = l
			d.state = dispatchLeased
			d.leaseID = l.id
			// Ship any checkpoints a previous holder of this job posted:
			// the stored byte slices are never mutated, so sharing them
			// with the encoder is safe.
			var ckpts map[string][]byte
			if m := c.ckpts[d.hash]; len(m) > 0 {
				ckpts = make(map[string][]byte, len(m))
				for k, v := range m {
					ckpts[k] = v
				}
			}
			c.leasesOut.Set(float64(c.activeLeasesLocked()))
			c.mu.Unlock()
			c.deliverExpired()
			c.leasesGrant.Inc()
			if len(ckpts) > 0 {
				c.ckptShipped.Inc()
			}
			return &Assignment{
				LeaseID:     l.id,
				Hash:        d.hash,
				Request:     d.canon,
				LeaseTTLMS:  c.cfg.LeaseTTL.Milliseconds(),
				Checkpoints: ckpts,
			}, nil
		}
		wake := c.wake
		c.mu.Unlock()
		c.deliverExpired()
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, nil
		}
		timer := time.NewTimer(remaining)
		select {
		case <-wake:
			timer.Stop()
		case <-c.stop:
			timer.Stop()
			return nil, nil
		case <-timer.C:
			return nil, nil
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}
}

// renew extends a live lease by one TTL and forwards the heartbeat's
// progress span, if any, to the submitting job's progress cell,
// attributed to the worker. A false return means the lease is gone —
// expired, completed, or never granted — and the worker must abandon the
// job: the coordinator has already requeued it.
func (c *Coordinator) renew(id, worker string, prog *telemetry.Progress) (time.Duration, bool) {
	now := c.cfg.Now()
	c.mu.Lock()
	c.workers[worker] = now
	c.sweepLocked(now)
	l, ok := c.leases[id]
	if !ok || l.terminal {
		c.mu.Unlock()
		c.deliverExpired()
		c.renewZombie.Inc()
		return 0, false
	}
	l.deadline = now.Add(c.cfg.LeaseTTL)
	pv := l.d.pv
	c.mu.Unlock()
	c.deliverExpired()
	if prog != nil {
		pv.SetFrom(worker, *prog)
	}
	c.leasesRenew.Inc()
	return c.cfg.LeaseTTL, true
}

// checkpointCap bounds stored checkpoints per job so a misbehaving
// worker cannot grow coordinator memory without bound.
const checkpointCap = 64

// checkpoint stores a worker's mid-run warm snapshot against the leased
// job's hash. The snapshot survives the lease: if this worker dies, the
// job's next holder receives it in its Assignment and resumes from it.
// A checkpoint on a dead lease is discarded (ErrLeaseGone) — the job
// already belongs to someone else, whose own checkpoints must win.
// An accepted checkpoint also renews the lease: mid-run state is the
// strongest liveness proof a worker can offer, and it arrives exactly
// when execution saturates the worker's CPU and starves its heartbeat
// ticker.
func (c *Coordinator) checkpoint(id, key string, snapshot []byte) error {
	now := c.cfg.Now()
	c.mu.Lock()
	c.sweepLocked(now)
	l, ok := c.leases[id]
	if !ok || l.terminal {
		c.mu.Unlock()
		c.deliverExpired()
		c.ckptZombie.Inc()
		return ErrLeaseGone
	}
	l.deadline = now.Add(c.cfg.LeaseTTL)
	m := c.ckpts[l.d.hash]
	if m == nil {
		m = make(map[string][]byte)
		c.ckpts[l.d.hash] = m
	}
	if _, exists := m[key]; !exists && len(m) >= checkpointCap {
		c.mu.Unlock()
		c.deliverExpired()
		return fmt.Errorf("fleet: checkpoint cap (%d) reached for job %.12s…", checkpointCap, l.d.hash)
	}
	m[key] = append([]byte(nil), snapshot...)
	hash, worker := l.d.hash, l.worker
	c.mu.Unlock()
	c.deliverExpired()
	c.ckptStored.Inc()
	c.cfg.Bus.Publish(telemetry.JobEvent{Type: telemetry.EventCheckpoint, Hash: hash, Worker: worker})
	return nil
}

// complete accepts a worker's completion body: a completeEnvelope whose
// artifact must pass the full resultcache invariant chain and hash to the
// leased job. A body that does not decode or an artifact that does not
// verify is rejected (ErrBadArtifact) and the job requeues; a late
// completion on a dead lease is discarded idempotently (ErrLeaseGone),
// whatever its body. On a verified completion the job's final progress
// span goes to its progress cell (at least one progress event per
// remotely-executed job, even when the run outpaced every heartbeat), and
// the job's telemetry snapshot merges into Config.Telemetry — exactly
// once, so the aggregate is deterministic for a fixed job set whatever
// the worker count or arrival order. Rejected or zombie completions
// merge nothing.
func (c *Coordinator) complete(id string, body []byte) error {
	now := c.cfg.Now()
	c.mu.Lock()
	c.sweepLocked(now)
	l, ok := c.leases[id]
	if !ok || l.terminal {
		c.mu.Unlock()
		c.deliverExpired()
		c.completeZomb.Inc()
		return ErrLeaseGone
	}
	d := l.d
	c.mu.Unlock()
	c.deliverExpired()

	// Verify outside the lock — hashing is not free — then re-check the
	// lease, which may have expired while we verified.
	env, verr := decodeComplete(body)
	var art *resultcache.Artifact
	if verr == nil {
		art, verr = resultcache.ReadArtifact(bytes.NewReader(env.Artifact))
	}
	if verr == nil && art.Hash != d.hash {
		verr = fmt.Errorf("fleet: artifact hash %.12s… does not match leased job %.12s…", art.Hash, d.hash)
	}
	// Cache the verified artifact before the job resolves, so a client
	// that sees the job done can fetch its result. Artifacts are
	// content-addressed, so storing one is correct even if the lease
	// expires meanwhile; a cache write fault costs a future
	// recomputation, not this job.
	if verr == nil && c.cfg.Cache != nil {
		if perr := c.cfg.Cache.Put(art); perr != nil {
			c.cachePutErr.Inc()
		}
	}

	now = c.cfg.Now()
	c.mu.Lock()
	c.sweepLocked(now)
	l, ok = c.leases[id]
	if !ok || l.terminal {
		c.mu.Unlock()
		c.deliverExpired()
		c.completeZomb.Inc()
		return ErrLeaseGone
	}
	if verr != nil {
		// Reject and requeue: the worker returned bytes that cannot be
		// the deterministic result of this request. Count before
		// resolving, so whoever sees the job finish sees it counted.
		c.terminalizeLocked(l)
		c.completeRej.Inc()
		c.requeues.Inc()
		c.finishLocked(d, nil, jobs.Transient(fmt.Errorf("fleet: worker %q returned a corrupt result for lease %s: %w", l.worker, id, verr)))
		c.mu.Unlock()
		c.deliverExpired()
		return fmt.Errorf("%w: %v", ErrBadArtifact, verr)
	}
	c.terminalizeLocked(l)
	// Final span first, then resolve: the dispatch waiter (the manager's
	// runner) returns only after done closes, so the progress event is
	// on the bus before the manager's complete event — streams always
	// show progress ≥ 1 before the terminal event.
	if env.Progress != nil {
		d.pv.SetFrom(l.worker, *env.Progress)
	}
	if env.Telemetry != nil {
		c.cfg.Telemetry.MergeSnapshot(*env.Telemetry)
	}
	c.completeOK.Inc() // counted before the job resolves, as above
	c.finishLocked(d, art.Result, nil)
	delete(c.ckpts, d.hash) // the job is done; its checkpoints are dead weight
	c.mu.Unlock()
	c.deliverExpired()
	return nil
}

// fail records a worker-reported execution failure. Transient failures
// requeue through the manager's retry loop; permanent ones fail the job.
func (c *Coordinator) fail(id, msg string, transient bool) error {
	now := c.cfg.Now()
	c.mu.Lock()
	c.sweepLocked(now)
	l, ok := c.leases[id]
	if !ok || l.terminal {
		c.mu.Unlock()
		c.deliverExpired()
		c.completeZomb.Inc()
		return ErrLeaseGone
	}
	err := fmt.Errorf("fleet: worker %q: %s", l.worker, msg)
	if transient {
		err = jobs.Transient(err)
		c.requeues.Inc()
	} else {
		// A permanent failure will not be retried; drop its checkpoints.
		delete(c.ckpts, l.d.hash)
	}
	c.terminalizeLocked(l)
	c.finishLocked(l.d, nil, err)
	c.mu.Unlock()
	c.deliverExpired()
	c.failReported.Inc()
	return nil
}

// Sweep runs one expiry scan immediately (the sweeper goroutine calls
// this on a timer; tests call it after advancing a fake clock).
func (c *Coordinator) Sweep() {
	c.mu.Lock()
	c.sweepLocked(c.cfg.Now())
	c.mu.Unlock()
	c.deliverExpired()
}

// sweeper is the background expiry loop.
func (c *Coordinator) sweeper() {
	defer c.swept.Done()
	t := time.NewTicker(c.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.Sweep()
		}
	}
}

// leaseRetention is how long terminal leases stay addressable so zombie
// renews/completions are classified (and counted) rather than 404ing.
const leaseRetention = 64

// sweepLocked expires overdue leases, requeues their dispatches, fails
// pending work when the fleet has no live workers, prunes the worker
// registry, and garbage-collects old terminal leases. Caller holds c.mu;
// expired lease IDs are queued for deliverExpired.
func (c *Coordinator) sweepLocked(now time.Time) {
	for id, l := range c.leases {
		if !l.terminal && now.After(l.deadline) {
			c.terminalizeLockedAt(l, now)
			c.leasesExpire.Inc()
			c.requeues.Inc()
			c.finishLocked(l.d, nil, jobs.Transient(
				fmt.Errorf("fleet: lease %s on worker %q expired after %s without a heartbeat", id, l.worker, c.cfg.LeaseTTL)))
			c.expired = append(c.expired, id)
		}
	}
	// A queue with no fleet behind it must not hold jobs hostage: fail
	// them transient so the retry lands on the local fallback.
	if c.liveWorkersLocked(now) == 0 && len(c.pending) > 0 {
		for _, d := range c.pending {
			c.requeues.Inc()
			c.finishLocked(d, nil, jobs.Transient(fmt.Errorf("fleet: no live workers to lease job %.12s…", d.hash)))
		}
		c.pending = nil
	}
	// GC terminal leases once enough newer ones exist; bounded memory
	// without a second clock.
	if len(c.leases) > leaseRetention {
		for id, l := range c.leases {
			if l.terminal && now.Sub(l.doneAt) > 10*c.cfg.LeaseTTL {
				delete(c.leases, id)
			}
		}
	}
	c.leasesOut.Set(float64(c.activeLeasesLocked()))
}

// liveWorkersLocked prunes stale workers and returns the live count.
func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	for name, seen := range c.workers {
		if now.Sub(seen) > c.cfg.WorkerTTL {
			delete(c.workers, name)
		}
	}
	c.workersLive.Set(float64(len(c.workers)))
	return len(c.workers)
}

func (c *Coordinator) activeLeasesLocked() int {
	n := 0
	for _, l := range c.leases {
		if !l.terminal {
			n++
		}
	}
	return n
}

// terminalizeLocked retires a lease so late renews and completions are
// detected as zombies.
func (c *Coordinator) terminalizeLocked(l *lease) { c.terminalizeLockedAt(l, c.cfg.Now()) }

func (c *Coordinator) terminalizeLockedAt(l *lease, now time.Time) {
	l.terminal = true
	l.doneAt = now
}

// finishLocked resolves a dispatch exactly once.
func (c *Coordinator) finishLocked(d *dispatch, result json.RawMessage, err error) {
	if d.state == dispatchDone {
		return
	}
	d.state = dispatchDone
	d.result = result
	d.err = err
	close(d.done)
}

// wakePollersLocked rouses every long-poller blocked on an empty queue.
func (c *Coordinator) wakePollersLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// deliverExpired invokes ExpireHook outside the lock for every lease the
// last sweep expired.
func (c *Coordinator) deliverExpired() {
	if c.cfg.ExpireHook == nil {
		c.mu.Lock()
		c.expired = nil
		c.mu.Unlock()
		return
	}
	c.mu.Lock()
	ids := c.expired
	c.expired = nil
	c.mu.Unlock()
	for _, id := range ids {
		c.cfg.ExpireHook(id)
	}
}
