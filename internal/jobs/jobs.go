// Package jobs turns the repository's one-shot simulation pipeline into
// a long-lived service: a bounded work queue with backpressure, content-
// hash singleflight so identical in-flight configs execute once, bounded
// retries with exponential backoff on transient failures, context-
// propagated cancellation, and a graceful drain that completes every
// accepted job — persisting any it cannot start so a restart resumes
// them. Execution itself stays in the deterministic experiments/faultsim
// pools (via resultcache.Request.Execute), so a job's result bytes are
// independent of queue timing, worker count, and retry history.
package jobs

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"sync"
	"time"

	"safeguard/internal/resultcache"
	"safeguard/internal/telemetry"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StatePersisted State = "persisted" // drained to the pending file before starting
)

// Terminal reports whether a job in this state will never run again in
// this process.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StatePersisted
}

// Sentinel submission errors; the HTTP layer maps them to 429 and 503.
var (
	ErrQueueFull = errors.New("jobs: queue full")
	ErrDraining  = errors.New("jobs: draining, not accepting jobs")
)

// transientError marks failures worth retrying.
type transientError struct{ err error }

func (t *transientError) Error() string { return t.err.Error() }
func (t *transientError) Unwrap() error { return t.err }

// Transient wraps an error so the manager retries the job (bounded by
// MaxAttempts, with exponential backoff). Unwrapped errors are treated
// as permanent: a deterministic simulator that failed once will fail
// identically on every retry.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err (or anything it wraps) was marked
// Transient.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// Runner executes one normalized request and returns its canonical
// result JSON. The default runner checks the result cache, executes on
// the deterministic pools, and stores the artifact (CachedRunner).
type Runner func(ctx context.Context, req *resultcache.Request) (json.RawMessage, error)

// Config parameterizes a Manager.
type Config struct {
	// Workers is the number of executor goroutines (default 2). Note
	// each worker runs its request on the full experiments/faultsim
	// pool, so a small worker count already saturates the machine.
	Workers int
	// QueueDepth bounds jobs accepted but not yet running (default 64).
	// Beyond it Submit returns ErrQueueFull — the 429 path.
	QueueDepth int
	// MaxAttempts bounds executions per job, first try included
	// (default 3). Only Transient errors are retried.
	MaxAttempts int
	// RetryBackoff is the sleep before attempt 2; it doubles per
	// attempt (default 250ms) and then gets a deterministic ±20% jitter
	// derived from the job hash, so a herd of clients retrying the same
	// outage spreads out instead of stampeding in lockstep. Tests shrink
	// it to microseconds.
	RetryBackoff time.Duration
	// AfterFunc is the retry clock (default time.After). Tests inject a
	// recording fake so backoff behavior is asserted without burning
	// wall-clock time.
	AfterFunc func(d time.Duration) <-chan time.Time
	// PendingPath, when non-empty, receives still-queued jobs on a
	// drain that runs out of time; LoadPendingJobs reads it back.
	PendingPath string
	// Runner executes requests (default CachedRunner over Cache).
	Runner Runner
	// Cache backs the default runner and is consulted by Submit so a
	// known result never occupies a queue slot. May be nil.
	Cache *resultcache.Cache
	// Telemetry, when set, receives "jobs.*" counters, the queue-depth
	// gauge/histogram, and the job-latency histogram.
	Telemetry *telemetry.Registry
	// Bus, when set, receives the job lifecycle event stream
	// (queued/leased/progress/retried/complete/failed) behind the SSE
	// endpoints and sgtop. May be nil: events are then dropped at zero
	// cost. The manager is the single publisher of lifecycle events;
	// other layers (the fleet coordinator) only add checkpoint events.
	Bus *telemetry.Bus
}

// Job is one accepted request. Fields are guarded by the manager's
// mutex; JobView snapshots are handed out instead of the struct.
type Job struct {
	id       string
	seq      int // submission order; List sorts by it
	hash     string
	req      *resultcache.Request
	state    State
	err      string
	attempts int
	accepted time.Time
	done     chan struct{}
	// pv is the job's progress cell; executors write it through the
	// context, the bus observer and JobView read it.
	pv *telemetry.ProgressVar
}

// JobView is an immutable snapshot of a job, JSON-shaped for the API.
type JobView struct {
	ID    string `json:"id"`
	Hash  string `json:"hash"`
	State State  `json:"state"`
	// Attempts counts executions started so far.
	Attempts int `json:"attempts,omitempty"`
	// Error carries the final failure (state "failed" only).
	Error string `json:"error,omitempty"`
	// Cached marks a submission answered from the result cache without
	// queueing.
	Cached bool `json:"cached,omitempty"`
	// Result is the artifact path once the result exists.
	Result string `json:"result,omitempty"`
	// Worker names the source of the latest progress report (a fleet
	// worker; empty for in-process execution).
	Worker string `json:"worker,omitempty"`
	// Progress is the latest recorded span, once the job reported any.
	Progress *telemetry.Progress `json:"progress,omitempty"`
}

// Manager owns the queue, the workers, and the job table.
type Manager struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job // id -> queued, running, or retained terminal job
	inflight map[string]*Job // hash -> job still queued/running (singleflight)
	draining bool
	seq      int
	queue    chan *Job
	wg       sync.WaitGroup // one count per accepted, non-terminal job

	// finished holds the terminal jobs still in the table, oldest-finished
	// first; past retainTerminal the oldest leaves the table. The tallies
	// count every job that ever finished, evicted or not.
	finished                        []*Job
	nCompleted, nFailed, nPersisted int

	submitted, dedup, rejectedFull   *telemetry.Counter
	rejectedDraining, completed      *telemetry.Counter
	failed, retried, persisted       *telemetry.Counter
	queueDepth                       *telemetry.Gauge
	depthAtSubmit, latencyMS, waitMS *telemetry.Histogram
}

// retainTerminal bounds the finished jobs the table keeps for lookup and
// listing — the same bound as the event bus's replay ring. Queued and
// running jobs are never evicted.
const retainTerminal = 1024

// queueDepthBounds buckets queue occupancy observed at submit time.
var queueDepthBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// latencyBoundsMS buckets wall-clock durations in milliseconds.
var latencyBoundsMS = []int64{1, 5, 10, 50, 100, 500, 1000, 5000, 15000, 60000}

// NewManager builds a manager and starts its workers.
func NewManager(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 250 * time.Millisecond
	}
	if cfg.AfterFunc == nil {
		cfg.AfterFunc = time.After
	}
	if cfg.Runner == nil {
		cfg.Runner = CachedRunner(cfg.Cache, cfg.Telemetry)
	}
	ctx, cancel := context.WithCancel(context.Background())
	reg := cfg.Telemetry
	m := &Manager{
		cfg:              cfg,
		ctx:              ctx,
		cancel:           cancel,
		jobs:             make(map[string]*Job),
		inflight:         make(map[string]*Job),
		queue:            make(chan *Job, cfg.QueueDepth),
		submitted:        reg.Counter("jobs.submitted"),
		dedup:            reg.Counter("jobs.dedup"),
		rejectedFull:     reg.Counter("jobs.rejected.full"),
		rejectedDraining: reg.Counter("jobs.rejected.draining"),
		completed:        reg.Counter("jobs.completed"),
		failed:           reg.Counter("jobs.failed"),
		retried:          reg.Counter("jobs.retried"),
		persisted:        reg.Counter("jobs.persisted"),
		queueDepth:       reg.Gauge("jobs.queue.depth"),
		depthAtSubmit:    reg.Histogram("jobs.queue.depth_at_submit", queueDepthBounds),
		latencyMS:        reg.Histogram("jobs.latency_ms", latencyBoundsMS),
		waitMS:           reg.Histogram("jobs.queue.wait_ms", latencyBoundsMS),
	}
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m
}

// CachedRunner is the production execution path: result-cache lookup,
// deterministic execution, artifact store. Cache faults on the store
// path are transient (a full disk should not burn the computed result's
// retry budget at the next attempt — the artifact is rebuilt bit-
// identically anyway).
func CachedRunner(cache *resultcache.Cache, reg *telemetry.Registry) Runner {
	return func(ctx context.Context, req *resultcache.Request) (json.RawMessage, error) {
		hash, err := req.Hash()
		if err != nil {
			return nil, err
		}
		if cache != nil {
			if a, ok, err := cache.Get(hash); err == nil && ok {
				return a.Result, nil
			}
		}
		result, err := req.Execute(ctx, reg)
		if err != nil {
			return nil, err
		}
		if cache != nil {
			a, err := resultcache.NewArtifact(req, result)
			if err != nil {
				return nil, err
			}
			if err := cache.Put(a); err != nil {
				return nil, Transient(err)
			}
		}
		return result, nil
	}
}

// Submit accepts a request. The request is normalized and hashed; an
// identical request already queued or running is coalesced onto that
// job (singleflight), and a hash already resolved in the cache answers
// immediately with Cached set. ErrQueueFull and ErrDraining report
// backpressure and shutdown.
func (m *Manager) Submit(req *resultcache.Request) (JobView, error) {
	hash, err := req.Hash()
	if err != nil {
		return JobView{}, err
	}
	if m.cfg.Cache != nil {
		if _, ok, cerr := m.cfg.Cache.Get(hash); cerr == nil && ok {
			return JobView{Hash: hash, State: StateDone, Cached: true, Result: resultPath(hash)}, nil
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		m.rejectedDraining.Inc()
		return JobView{}, ErrDraining
	}
	if j, ok := m.inflight[hash]; ok {
		m.dedup.Inc()
		return j.view(), nil
	}
	m.seq++
	j := &Job{
		id:       fmt.Sprintf("j-%06d", m.seq),
		seq:      m.seq,
		hash:     hash,
		req:      req,
		state:    StateQueued,
		accepted: time.Now(),
		done:     make(chan struct{}),
	}
	j.pv = m.newProgressVar(j.id, hash)
	select {
	case m.queue <- j:
	default:
		m.rejectedFull.Inc()
		return JobView{}, ErrQueueFull
	}
	m.jobs[j.id] = j
	m.inflight[hash] = j
	m.wg.Add(1)
	m.submitted.Inc()
	depth := len(m.queue)
	m.queueDepth.Set(float64(depth))
	m.depthAtSubmit.Observe(int64(depth))
	m.cfg.Bus.Publish(telemetry.JobEvent{Type: telemetry.EventQueued, Job: j.id, Hash: hash})
	return j.view(), nil
}

// newProgressVar builds a job's progress cell. Its observer republishes
// spans onto the event bus, rate-limited so a fine-grained executor
// (thousands of Monte-Carlo blocks) does not flood subscribers: an event
// goes out on the first write, on any phase or source change, when Done
// reaches Total, and otherwise only per ~1% of Total advance.
func (m *Manager) newProgressVar(id, hash string) *telemetry.ProgressVar {
	pv := &telemetry.ProgressVar{}
	if m.cfg.Bus == nil {
		return pv
	}
	// Observer state needs no extra lock: the var invokes it under its
	// own mutex, so calls are serialized.
	var last telemetry.Progress
	var lastSrc string
	seen := false
	pv.Observe(func(src string, p telemetry.Progress) {
		step := int64(1)
		if p.Total > 100 {
			step = p.Total / 100
		}
		switch {
		case !seen, p.Phase != last.Phase, src != lastSrc,
			p.Total > 0 && p.Done >= p.Total,
			p.Done-last.Done >= step, p.Done < last.Done:
		default:
			return
		}
		seen, last, lastSrc = true, p, src
		m.cfg.Bus.Publish(telemetry.JobEvent{
			Type: telemetry.EventProgress, Job: id, Hash: hash,
			Worker: src, Progress: &p,
		})
	})
	return pv
}

// Bus exposes the configured event bus (nil when events are disabled);
// the HTTP layer subscribes its SSE handlers to it.
func (m *Manager) Bus() *telemetry.Bus { return m.cfg.Bus }

// List returns up to limit job snapshots starting at offset in id order
// (= submission order), plus the total job count. The table holds every
// queued and running job and the retainTerminal most recently finished
// ones. limit <= 0 means no bound beyond the table itself.
func (m *Manager) List(offset, limit int) ([]JobView, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	slices.SortFunc(jobs, bySeq)
	total := len(jobs)
	offset = min(max(offset, 0), total)
	end := total
	if limit > 0 {
		end = min(offset+limit, total)
	}
	views := make([]JobView, 0, end-offset)
	for _, j := range jobs[offset:end] {
		views = append(views, j.view())
	}
	return views, total
}

// bySeq orders jobs by submission. Ids do not sort that way as strings
// from the millionth job on: "j-1000000" < "j-999999".
func bySeq(a, b *Job) int { return cmp.Compare(a.seq, b.seq) }

// Job returns a snapshot of the identified job.
func (m *Manager) Job(id string) (JobView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// WaitJob blocks until the job reaches a terminal state or ctx ends.
func (m *Manager) WaitJob(ctx context.Context, id string) (JobView, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobView{}, fmt.Errorf("jobs: unknown job %q", id)
	}
	select {
	case <-j.done:
		m.mu.Lock()
		defer m.mu.Unlock()
		return j.view(), nil
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
}

// Draining reports whether the manager has stopped accepting jobs.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// QueueDepth returns the current queued-but-not-running count.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// DrainReport summarizes a drain.
type DrainReport struct {
	// Completed and Failed count jobs that reached those states during
	// (or before) the drain; Persisted counts queued jobs written to the
	// pending file when the drain deadline hit first. The counts include
	// jobs the table no longer retains: every accepted job lands in
	// exactly one bucket once Running reaches zero.
	Completed, Failed, Persisted int
	// Running counts jobs still executing when the drain returned early
	// (always zero when the context did not expire).
	Running int
	// InFlightJournaled counts running jobs whose request made it into
	// the journal on an expired drain. They keep running; the journal entry only matters
	// if the process dies before they finish.
	InFlightJournaled int
}

// Drain stops accepting new jobs and waits for every accepted job to
// finish. If ctx expires first, jobs still waiting in the queue are
// persisted to PendingPath (state "persisted"), and the requests of jobs
// still running are journaled alongside them, so a restart re-runs both
// from the start (runs are deterministic, so the artifacts are the same
// bytes). Running jobs keep their context and are left to finish. Either way no accepted job is silently dropped.
func (m *Manager) Drain(ctx context.Context) (DrainReport, error) {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()

	waitDone := make(chan struct{})
	go func() { m.wg.Wait(); close(waitDone) }()
	var err error
	var journaled int
	select {
	case <-waitDone:
	case <-ctx.Done():
		journaled, err = m.persistPending()
		// Give wg a chance to settle for jobs that finished while we
		// were persisting.
		select {
		case <-waitDone:
		default:
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return DrainReport{
		Completed:         m.nCompleted,
		Failed:            m.nFailed,
		Persisted:         m.nPersisted,
		Running:           len(m.jobs) - len(m.finished),
		InFlightJournaled: journaled,
	}, err
}

// persistPending journals the drain's unfinished work: every not-yet-
// started job is pulled off the queue and persisted, and every still-
// running job's request is journaled (it keeps running — the entry is the
// recovery plan if the process dies before it finishes; if it does
// finish, resubmission hits the result cache). Jobs
// a worker grabs concurrently simply run to completion instead — either
// way nothing is dropped. Returns the in-flight entry count.
func (m *Manager) persistPending() (int, error) {
	var queued []*Job
	for {
		select {
		case j := <-m.queue:
			queued = append(queued, j)
		default:
			goto pulled
		}
	}
pulled:
	m.mu.Lock()
	var running []*Job
	for _, j := range m.jobs {
		if j.state == StateRunning {
			running = append(running, j)
		}
	}
	slices.SortFunc(running, bySeq)
	entries := make([]PendingJob, 0, len(queued)+len(running))
	for _, j := range queued {
		entries = append(entries, PendingJob{Request: j.req})
	}
	for _, j := range running {
		entries = append(entries, PendingJob{Request: j.req})
	}
	m.mu.Unlock()
	if len(entries) == 0 {
		return 0, nil
	}
	var werr error
	switch {
	case m.cfg.PendingPath != "":
		werr = SavePendingJobs(m.cfg.PendingPath, entries)
	case len(queued) > 0:
		werr = fmt.Errorf("jobs: %d queued jobs dropped at drain (no PendingPath configured)", len(queued))
	default:
		// Only in-flight jobs and nowhere to journal them: they are still
		// running on their own context, so nothing is lost yet.
		return 0, nil
	}
	m.mu.Lock()
	for _, j := range queued {
		st, msg := StatePersisted, ""
		if werr != nil {
			st, msg = StateFailed, werr.Error()
		}
		m.finish(j, st, msg)
		if werr == nil {
			m.persisted.Inc()
		}
	}
	m.mu.Unlock()
	if werr != nil {
		return 0, werr
	}
	return len(running), nil
}

// PendingJob is one drain journal entry: a request to resubmit, run from
// the start.
type PendingJob struct {
	Request *resultcache.Request `json:"request"`
}

// pendingFile is the drain journal format. Requests is the legacy bare
// entry list; journals written by this build use Jobs. Both are honored
// on load, and a "checkpoint" key that older builds wrote beside a
// request is ignored.
type pendingFile struct {
	Schema   string                 `json:"schema"`
	Requests []*resultcache.Request `json:"requests,omitempty"`
	Jobs     []PendingJob           `json:"jobs,omitempty"`
}

// pendingSchema versions the drain journal.
const pendingSchema = "sgserve-pending/1"

// SavePendingJobs writes journal entries to a drain journal (atomic
// rename).
func SavePendingJobs(path string, entries []PendingJob) error {
	raw, err := json.MarshalIndent(pendingFile{Schema: pendingSchema, Jobs: entries}, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadPendingJobs reads a drain journal and removes it, returning the
// normalized entries to resubmit. A missing file is an empty resume.
//
// Corruption must never block a boot — a crashed drain or a tampered
// disk costs at worst the journaled jobs, not the service. A journal
// that does not parse (truncation, garbage, a foreign schema) is
// quarantined to <path>.corrupt, counted under "jobs.journal.corrupt",
// and reported as an empty resume; an individual request that fails
// validation is skipped and counted under "jobs.journal.skipped" while
// the rest resume. Only real I/O faults (permissions, not corruption)
// surface as errors.
func LoadPendingJobs(path string, reg *telemetry.Registry) ([]PendingJob, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var pf pendingFile
	if uerr := json.Unmarshal(raw, &pf); uerr != nil || pf.Schema != pendingSchema {
		reg.Counter("jobs.journal.corrupt").Inc()
		// Keep the evidence, but off the boot path: the next start must
		// not trip over the same bad bytes.
		if rerr := os.Rename(path, path+".corrupt"); rerr != nil {
			_ = os.Remove(path)
		}
		return nil, nil
	}
	entries := make([]PendingJob, 0, len(pf.Requests)+len(pf.Jobs))
	for _, r := range pf.Requests {
		entries = append(entries, PendingJob{Request: r})
	}
	entries = append(entries, pf.Jobs...)
	good := make([]PendingJob, 0, len(entries))
	for _, e := range entries {
		if e.Request == nil {
			reg.Counter("jobs.journal.skipped").Inc()
			continue
		}
		if nerr := e.Request.Normalize(); nerr != nil {
			reg.Counter("jobs.journal.skipped").Inc()
			continue
		}
		good = append(good, e)
	}
	if err := os.Remove(path); err != nil {
		return good, err
	}
	return good, nil
}

// Close cancels every running job and stops the workers. Terminal
// states already reached are preserved; the manager must not be used
// afterwards. Drain first for a graceful exit.
func (m *Manager) Close() { m.cancel() }

// worker executes jobs with bounded retries.
func (m *Manager) worker() {
	for {
		select {
		case <-m.ctx.Done():
			return
		case j := <-m.queue:
			m.run(j)
		}
	}
}

func (m *Manager) run(j *Job) {
	m.mu.Lock()
	j.state = StateRunning
	m.mu.Unlock()
	m.queueDepth.Set(float64(len(m.queue)))
	m.waitMS.Observe(time.Since(j.accepted).Milliseconds())
	m.cfg.Bus.Publish(telemetry.JobEvent{Type: telemetry.EventLeased, Job: j.id, Hash: j.hash, Attempt: 1})

	// The runner sees the job's progress var through the context; local
	// executors and the fleet coordinator both pick it up there.
	runCtx := telemetry.WithProgress(m.ctx, j.pv)

	var lastErr error
	for attempt := 1; attempt <= m.cfg.MaxAttempts; attempt++ {
		m.mu.Lock()
		j.attempts = attempt
		m.mu.Unlock()
		if attempt > 1 {
			m.retried.Inc()
			backoff := JitteredBackoff(m.cfg.RetryBackoff, attempt, j.hash)
			select {
			case <-m.cfg.AfterFunc(backoff):
			case <-m.ctx.Done():
				m.finishLocked(j, StateFailed, m.ctx.Err().Error())
				return
			}
			m.cfg.Bus.Publish(telemetry.JobEvent{Type: telemetry.EventRetried, Job: j.id, Hash: j.hash, Attempt: attempt, Error: lastErr.Error()})
		}
		_, err := m.cfg.Runner(runCtx, j.req)
		if err == nil {
			m.latencyMS.Observe(time.Since(j.accepted).Milliseconds())
			m.finishLocked(j, StateDone, "")
			return
		}
		lastErr = err
		if !IsTransient(err) || m.ctx.Err() != nil {
			break
		}
	}
	m.finishLocked(j, StateFailed, lastErr.Error())
}

// JitteredBackoff is the sleep before retry attempt n (n >= 2): the base
// doubles per attempt, then a ±20% jitter is applied. The jitter is
// derived deterministically from the job hash and attempt number rather
// than a random source — the same job retries on the same schedule every
// time (reproducible tests), while distinct jobs land on distinct
// offsets, which is what actually breaks up a thundering herd of clients
// all retrying the same outage.
func JitteredBackoff(base time.Duration, attempt int, hash string) time.Duration {
	d := base << (attempt - 2)
	h := fnv.New64a()
	_, _ = h.Write([]byte(hash))
	_, _ = h.Write([]byte{byte(attempt)})
	// Map the hash onto [80%, 120%] of the doubled base in 0.1% steps.
	f := time.Duration(800 + h.Sum64()%401)
	return d * f / 1000
}

// finishLocked is finish with its own locking.
func (m *Manager) finishLocked(j *Job, st State, msg string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finish(j, st, msg)
}

// finish moves a job to a terminal state. Caller holds m.mu.
func (m *Manager) finish(j *Job, st State, msg string) {
	if j.state.Terminal() {
		return
	}
	j.state = st
	j.err = msg
	if cur, ok := m.inflight[j.hash]; ok && cur == j {
		delete(m.inflight, j.hash)
	}
	var evType string
	switch st {
	case StateDone:
		m.nCompleted++
		m.completed.Inc()
		evType = telemetry.EventComplete
	case StateFailed:
		m.nFailed++
		m.failed.Inc()
		evType = telemetry.EventFailed
	case StatePersisted:
		m.nPersisted++
	}
	m.finished = append(m.finished, j)
	if len(m.finished) > retainTerminal {
		delete(m.jobs, m.finished[0].id)
		m.finished[0] = nil
		m.finished = m.finished[1:]
	}
	if evType != "" {
		ev := telemetry.JobEvent{Type: evType, Job: j.id, Hash: j.hash, Attempt: j.attempts, Error: msg}
		if src, p, ok := j.pv.Load(); ok {
			ev.Worker, ev.Progress = src, &p
		}
		m.cfg.Bus.Publish(ev)
	}
	close(j.done)
	m.wg.Done()
}

// view snapshots a job. Caller holds m.mu (or the job is freshly built).
func (j *Job) view() JobView {
	v := JobView{ID: j.id, Hash: j.hash, State: j.state, Attempts: j.attempts, Error: j.err}
	if j.state == StateDone {
		v.Result = resultPath(j.hash)
	}
	if src, p, ok := j.pv.Load(); ok {
		v.Worker = src
		v.Progress = &p
	}
	return v
}

// resultPath is the API path serving a hash's artifact.
func resultPath(hash string) string { return "/v1/results/" + hash }
