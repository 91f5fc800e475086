package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"safeguard/internal/experiments"
	"safeguard/internal/jobs"
	"safeguard/internal/resultcache"
	"safeguard/internal/telemetry"
)

// lifetime-served: the Figure 6/10 reliability studies served as jobs by
// an in-process jobs.Server on loopback to one closed-loop client. Each
// unit is one miss round trip (POST, wait for the job's terminal SSE
// event, GET the artifact); after each round of studies every request
// is resubmitted once and must be answered from the result cache with
// the same bytes.

type relStudy struct {
	evaluator      string
	fit            float64
	scrub, retire  float64
	chipkillFamily bool
}

var relStudies = func() []relStudy {
	var out []relStudy
	for _, fit := range []float64{1, 10} {
		out = append(out,
			relStudy{evaluator: "secded", fit: fit},
			relStudy{evaluator: "safeguard-secded", fit: fit},
			relStudy{evaluator: "safeguard-secded-noparity", fit: fit},
			relStudy{evaluator: "chipkill", fit: fit, chipkillFamily: true},
			relStudy{evaluator: "safeguard-chipkill", fit: fit, chipkillFamily: true},
		)
	}
	return append(out,
		relStudy{evaluator: "chipkill", fit: 10, scrub: 24, chipkillFamily: true},
		relStudy{evaluator: "chipkill", fit: 10, retire: 168, chipkillFamily: true})
}()

// servedRounds is how many rounds of requests set-up generates (with
// their content hashes); later rounds are generated on demand.
const servedRounds = 64

// servedInput is one request body and the content hash the server must
// assign it.
type servedInput struct {
	body []byte
	hash string
}

// servedTiming is one miss job's server-side timeline.
type servedTiming struct {
	runStart, runEnd time.Time
}

type lifetimeServed struct {
	e       *env
	modules int
	srv     *http.Server
	mgr     *jobs.Manager
	base    string
	client  *http.Client
	inputs  []servedInput

	mu      sync.Mutex
	tr      *tracer
	parents map[string]int // request hash -> unit span, for the runner's spans
	timing  map[string]*servedTiming
	miss    map[int][]byte // unit -> artifact bytes of the miss leg
	hits    []unitResult
	stats   servedStats
}

type servedStats struct {
	modules, failed           float64
	execNS                    map[bool]float64 // chipkill family -> runner ns
	modulesBy                 map[bool]float64 // chipkill family -> modules
	queueWait, finish, httpMS []float64        // per traced miss, ms
	resubmits, cachedAnswers  float64
}

func newLifetimeServed(e *env) (runner, error) {
	s := &lifetimeServed{
		e: e, modules: experiments.QuickReliability().Modules,
		parents: make(map[string]int),
		timing:  make(map[string]*servedTiming), miss: make(map[int][]byte),
		stats: servedStats{execNS: make(map[bool]float64), modulesBy: make(map[bool]float64)},
	}
	cache, err := resultcache.New(resultcache.Options{MemEntries: 4 * len(relStudies)})
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	inner := jobs.CachedRunner(cache, reg)
	s.mgr = jobs.NewManager(jobs.Config{
		Workers:   1,
		Cache:     cache,
		Telemetry: reg,
		Bus:       telemetry.NewBus(reg),
		Runner:    s.wrap(inner),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.mgr.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: jobs.NewServer(s.mgr, reg)}
	go func() { _ = s.srv.Serve(ln) }() // returns ErrServerClosed on close
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	if _, err := s.get("/readyz"); err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < servedRounds*len(relStudies); i++ {
		in, err := s.input(i)
		if err != nil {
			s.close()
			return nil, err
		}
		s.inputs = append(s.inputs, in)
	}
	return s, nil
}

// wrap times the production runner (result-cache lookup, faultsim
// execution on the GOMAXPROCS-sized pool, artifact store) in the traced
// pass.
func (s *lifetimeServed) wrap(inner jobs.Runner) jobs.Runner {
	return func(ctx context.Context, req *resultcache.Request) (json.RawMessage, error) {
		s.mu.Lock()
		traced := s.tr != nil
		s.mu.Unlock()
		if !traced {
			return inner(ctx, req)
		}
		start := time.Now()
		out, err := inner(ctx, req)
		end := time.Now()
		if hash, herr := req.Hash(); herr == nil {
			s.mu.Lock()
			s.timing[hash] = &servedTiming{runStart: start, runEnd: end}
			if parent, ok := s.parents[hash]; ok {
				s.tr.record("faultsim.exec", start, end, parent)
			}
			s.mu.Unlock()
		}
		return out, err
	}
}

func (s *lifetimeServed) clients() int { return 1 }
func (s *lifetimeServed) batch() int   { return len(relStudies) }

func (s *lifetimeServed) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // best effort: the process is about to exit or rebuild
	s.mgr.Close()
}

// input builds unit i's request: round i/len(relStudies) of study
// i%len(relStudies), with its canonical content hash.
func (s *lifetimeServed) input(i int) (servedInput, error) {
	if i < len(s.inputs) {
		return s.inputs[i], nil
	}
	round, st := i/len(relStudies), relStudies[i%len(relStudies)]
	body, err := json.Marshal(map[string]any{"kind": "rel", "rel": map[string]any{
		"evaluators": []string{st.evaluator}, "modules": s.modules, "years": 7,
		"fit_scale": st.fit, "seed": s.e.seed*1000 + uint64(round) + 1,
		"scrub_interval_hours": st.scrub, "retire_interval_hours": st.retire,
	}})
	if err != nil {
		return servedInput{}, err
	}
	req, err := resultcache.ParseRequest(bytes.NewReader(body))
	if err != nil {
		return servedInput{}, err
	}
	hash, err := req.Hash()
	return servedInput{body: body, hash: hash}, err
}

func (s *lifetimeServed) unit(i int, tr *tracer, parent int) unitResult {
	s.mu.Lock()
	s.tr = tr
	s.mu.Unlock()
	u := unitResult{work: float64(s.modules)}
	t0 := time.Now()
	art, view, terminal, err := s.roundTrip(i, tr, parent, false)
	u.ms = msSince(t0)
	if err == nil {
		err = s.checkMiss(view, art)
	}
	if err != nil {
		u.err = err
		return u
	}
	u.digest = digestBytes(art)
	s.mu.Lock()
	s.miss[i] = art
	if t, ok := s.timing[view.Hash]; ok && tr != nil {
		// Split the round trip: accepted -> runner start, runner
		// execution, runner return -> terminal event seen, and the rest
		// (HTTP requests and responses).
		wait, exec, finish := ms(t.runStart.Sub(t0)), ms(t.runEnd.Sub(t.runStart)), ms(terminal.Sub(t.runEnd))
		s.stats.queueWait = append(s.stats.queueWait, wait)
		s.stats.finish = append(s.stats.finish, finish)
		s.stats.httpMS = append(s.stats.httpMS, u.ms-wait-exec-finish)
		ck := relStudies[i%len(relStudies)].chipkillFamily
		s.stats.execNS[ck] += float64(t.runEnd.Sub(t.runStart))
		s.stats.modulesBy[ck] += float64(s.modules)
	}
	s.mu.Unlock()
	if i%len(relStudies) == len(relStudies)-1 {
		s.resubmitRound(i/len(relStudies), tr, parent)
	}
	return u
}

// checkMiss validates a miss leg's artifact: a fresh execution (not a
// cache answer) holding one study over the requested population.
func (s *lifetimeServed) checkMiss(view jobs.JobView, art []byte) error {
	if view.Cached {
		return fmt.Errorf("first submission answered from cache")
	}
	a, err := resultcache.ReadArtifact(bytes.NewReader(art))
	if err != nil {
		return err
	}
	var wire resultcache.RelWire
	if err := json.Unmarshal(a.Result, &wire); err != nil {
		return err
	}
	results, err := resultcache.RelResultsFromWire(wire)
	if err != nil {
		return err
	}
	if len(results) != 1 || results[0].Modules != s.modules {
		return fmt.Errorf("artifact holds %d results, want one over %d modules", len(results), s.modules)
	}
	s.mu.Lock()
	s.stats.modules += float64(results[0].Modules)
	s.stats.failed += float64(results[0].Failed)
	s.mu.Unlock()
	return nil
}

// roundTrip submits unit i's request and returns the artifact bytes
// and when the job's terminal event arrived. A miss waits for that
// event on the job's SSE stream.
func (s *lifetimeServed) roundTrip(i int, tr *tracer, parent int, resubmit bool) ([]byte, jobs.JobView, time.Time, error) {
	var view jobs.JobView
	var terminal time.Time
	in, err := s.input(i)
	if err != nil {
		return nil, view, terminal, err
	}
	if tr != nil && !resubmit {
		s.mu.Lock()
		s.parents[in.hash] = parent
		s.mu.Unlock()
	}
	id := tr.begin("jobs.post", parent, i)
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(in.body))
	if err == nil {
		err = decodeJSON(resp, &view, http.StatusAccepted, http.StatusOK)
	}
	tr.end(id)
	if err != nil {
		return nil, view, terminal, fmt.Errorf("submit: %w", err)
	}
	if view.Hash != in.hash {
		return nil, view, terminal, fmt.Errorf("server hashed the request to %s, want %s", view.Hash, in.hash)
	}
	if !view.Cached {
		id = tr.begin("jobs.wait", parent, i)
		err = s.waitTerminal(view.ID)
		terminal = time.Now()
		tr.end(id)
		if err != nil {
			return nil, view, terminal, err
		}
	}
	id = tr.begin("jobs.get", parent, i)
	art, err := s.get("/v1/results/" + view.Hash)
	tr.end(id)
	return art, view, terminal, err
}

// waitTerminal reads the job's event stream until the server closes it
// after the terminal event.
func (s *lifetimeServed) waitTerminal(job string) error {
	resp, err := s.client.Get(s.base + "/v1/jobs/" + job + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	var last telemetry.JobEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			if err := json.Unmarshal([]byte(data), &last); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if last.Type != telemetry.EventComplete {
		return fmt.Errorf("job %s ended with event %q (%s)", job, last.Type, last.Error)
	}
	return nil
}

func (s *lifetimeServed) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, b)
	}
	return b, nil
}

func decodeJSON(resp *http.Response, v any, ok ...int) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	for _, code := range ok {
		if resp.StatusCode == code {
			return json.Unmarshal(b, v)
		}
	}
	return fmt.Errorf("HTTP %d: %s", resp.StatusCode, b)
}

// resubmitRound resubmits every study of a finished round; each must be
// a cache hit returning the miss leg's bytes.
func (s *lifetimeServed) resubmitRound(round int, tr *tracer, parent int) {
	for k := range relStudies {
		i := round*len(relStudies) + k
		t0 := time.Now()
		art, view, _, err := s.roundTrip(i, tr, parent, true)
		h := unitResult{index: i, ms: msSince(t0), err: err}
		s.mu.Lock()
		s.stats.resubmits++
		if err == nil && view.Cached {
			s.stats.cachedAnswers++
		}
		switch {
		case h.err != nil:
		case !view.Cached:
			h.err = errors.New("resubmission was not a cache hit")
		case !bytes.Equal(art, s.miss[i]):
			h.err = errors.New("cache-hit bytes differ from the miss bytes")
		}
		s.hits = append(s.hits, h)
		s.mu.Unlock()
	}
}

func (s *lifetimeServed) cached() []unitResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]unitResult(nil), s.hits...)
}

func (s *lifetimeServed) extras(*tracer) []unitResult { return nil }

func (s *lifetimeServed) layers(spans []span, units []unitResult, m map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	m["faultsim.exec_ms"] = median(durationsMS(spans, "faultsim.exec"))
	m["faultsim.ns_per_module.secded"] = ratio(st.execNS[false], st.modulesBy[false])
	m["faultsim.ns_per_module.chipkill"] = ratio(st.execNS[true], st.modulesBy[true])
	m["faultsim.modules"] = st.modules
	m["faultsim.failed"] = st.failed
	m["jobs.queue_wait_ms"] = median(st.queueWait)
	m["jobs.finish_ms"] = median(st.finish)
	m["resultcache.hit_ratio"] = ratio(st.cachedAnswers, st.resubmits)
	m["jobs.http_ms"] = median(st.httpMS)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
