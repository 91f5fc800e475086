package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"safeguard/internal/resultcache"
	"safeguard/internal/telemetry"
)

// Server is the HTTP face of a Manager:
//
//	POST /v1/jobs              submit a simulation request
//	GET  /v1/jobs              list jobs (state + progress), paginated
//	GET  /v1/jobs/{id}         poll a job
//	GET  /v1/jobs/{id}/events  one job's lifecycle as SSE (history + live)
//	GET  /v1/events            every job event as SSE (the firehose)
//	GET  /v1/results/{hash}    fetch an artifact (the stored bytes, verbatim)
//	GET  /healthz              liveness (200 while the process serves at all)
//	GET  /readyz               readiness (503 while draining or degraded)
//	GET  /metrics              Prometheus text exposition of the registry
//	/stats, /debug/pprof/      the telemetry surface (JSON snapshot, pprof)
//
// Submissions answered from the cache return 200 with the job view;
// accepted jobs return 202 with a Location header for polling. A full
// queue returns 429 with Retry-After; a draining server returns 503.
//
// Health and readiness are deliberately split: a draining server is
// still alive (healthz 200 — do not restart it, it is finishing work)
// but must not receive new traffic (readyz 503 — load balancers stop
// routing before the submit 503s start).
type Server struct {
	mgr *Manager
	mux *http.ServeMux
	// RetryAfterSeconds fills the Retry-After header on 429/503
	// responses (default 5).
	RetryAfterSeconds int
	// Ready, when set, adds a readiness dimension beyond draining — the
	// fleet coordinator plugs its worker-liveness check in here so a
	// worker-less-degraded server reports not-ready while still healthy.
	Ready func() error
}

// NewServer wires a Manager (and its telemetry registry) into a handler.
func NewServer(mgr *Manager, reg *telemetry.Registry) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux(), RetryAfterSeconds: 5}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/events", s.handleEventsFirehose)
	s.mux.HandleFunc("GET /v1/results/{hash}", s.handleResult)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	tel := telemetry.Handler(reg)
	s.mux.Handle("/stats", tel)
	s.mux.Handle("/debug/", tel)
	s.mux.Handle("/metrics", tel)
	return s
}

// Handle mounts an extra handler on the server's mux — how cmd/sgserve
// attaches the fleet coordinator's lease endpoints.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBody bounds submission payloads; canonical requests are a
// few hundred bytes, so 1 MiB is generous headroom, not a limit anyone
// legitimate will hit.
const maxRequestBody = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := resultcache.ParseRequest(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	view, err := s.mgr.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterSeconds))
		s.writeError(w, http.StatusTooManyRequests, "queue full, retry later")
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterSeconds))
		s.writeError(w, http.StatusServiceUnavailable, "server draining, not accepting jobs")
		return
	case err != nil:
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if view.Cached {
		s.writeJSON(w, http.StatusOK, view)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+view.ID)
	s.writeJSON(w, http.StatusAccepted, view)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.mgr.Job(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	s.writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !resultcache.ValidHash(hash) {
		s.writeError(w, http.StatusBadRequest, "malformed result hash")
		return
	}
	if s.mgr.cfg.Cache == nil {
		s.writeError(w, http.StatusNotFound, "no result cache configured")
		return
	}
	art, ok, err := s.mgr.cfg.Cache.Get(hash)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "cache read: %v", err)
		return
	}
	if !ok {
		s.writeError(w, http.StatusNotFound, "no result for %s", hash)
		return
	}
	// Serve the artifact's canonical encoding verbatim: byte-identity is
	// part of the cache contract, so no re-marshaling here.
	enc, err := art.Encode()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encode artifact: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Result-Hash", hash)
	_, _ = w.Write(enc)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	// Pure liveness: a draining server is healthy (it is completing
	// accepted work) — readiness is the signal that routes traffic away.
	status := "ok"
	if s.mgr.Draining() {
		status = "draining"
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":      status,
		"queue_depth": s.mgr.QueueDepth(),
	})
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.mgr.Draining() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining", "reason": "not accepting jobs",
		})
		return
	}
	if s.Ready != nil {
		if err := s.Ready(); err != nil {
			s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "degraded", "reason": err.Error(),
			})
			return
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ready",
		"queue_depth": s.mgr.QueueDepth(),
	})
}
