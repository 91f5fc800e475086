// The fleet wire protocol — the coordinator's HTTP face and the typed
// client the worker drives it with. Five endpoints, all POST (every one
// mutates lease state):
//
//	POST /v1/fleet/lease                 long-poll for work
//	                                     200 Assignment | 204 no work
//	POST /v1/fleet/lease/{id}/renew      heartbeat {"worker","progress"}
//	                                     200 {"lease_ttl_ms"} | 410 gone
//	POST /v1/fleet/lease/{id}/checkpoint {"key","snapshot"} mid-run state
//	                                     200 | 410 zombie
//	POST /v1/fleet/lease/{id}/complete   {"artifact","telemetry","progress"}
//	                                     200 | 400 corrupt | 410 zombie
//	POST /v1/fleet/lease/{id}/fail       {"error","transient"}
//	                                     200 | 410 zombie
//
// 410 Gone is the protocol's zombie signal: the lease was expired or
// already resolved, the coordinator has moved on, and the worker must
// abandon the job without resubmitting.
package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"safeguard/internal/telemetry"
)

// Sentinel protocol errors.
var (
	// ErrLeaseGone marks a renew/complete/fail against a lease that is
	// expired, resolved, or unknown — the zombie-discard path.
	ErrLeaseGone = errors.New("fleet: lease gone")
	// ErrBadArtifact marks a completion whose bytes failed verification.
	ErrBadArtifact = errors.New("fleet: artifact failed verification")
)

// Assignment is one leased job as sent to a worker.
type Assignment struct {
	LeaseID string `json:"lease_id"`
	// Hash is the job's content hash; the worker re-derives it from
	// Request and refuses a mismatched assignment.
	Hash string `json:"hash"`
	// Request is the canonical request JSON.
	Request json.RawMessage `json:"request"`
	// LeaseTTLMS is the heartbeat budget: renew well inside it.
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	// Checkpoints carries the warm snapshots previous holders of this
	// job posted (warm key JSON → sgsnap bytes). A resumed worker seeds
	// its warm pool with them and skips the work already done.
	Checkpoints map[string][]byte `json:"checkpoints,omitempty"`
}

// checkpointRequest is a worker's mid-run state deposit.
type checkpointRequest struct {
	Key      string `json:"key"`
	Snapshot []byte `json:"snapshot"`
}

// leaseRequest is the worker's long-poll body.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// renewRequest is the heartbeat body: the worker's identity plus the
// job's latest progress span, when it has reported one.
type renewRequest struct {
	Worker   string              `json:"worker"`
	Progress *telemetry.Progress `json:"progress,omitempty"`
}

// renewResponse answers a successful heartbeat.
type renewResponse struct {
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
}

// completeEnvelope is the complete body: the finished artifact with the
// job's final telemetry snapshot and progress span.
type completeEnvelope struct {
	Artifact  []byte              `json:"artifact"`
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	Progress  *telemetry.Progress `json:"progress,omitempty"`
}

// decodeComplete strictly decodes a complete body: one envelope, no
// unknown fields, nothing after it, and a non-empty artifact.
func decodeComplete(body []byte) (completeEnvelope, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var env completeEnvelope
	if err := dec.Decode(&env); err != nil {
		return completeEnvelope{}, fmt.Errorf("fleet: complete body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return completeEnvelope{}, fmt.Errorf("fleet: complete body: data after the envelope")
	}
	if len(env.Artifact) == 0 {
		return completeEnvelope{}, fmt.Errorf("fleet: complete body: empty artifact")
	}
	return env, nil
}

// failRequest reports a worker-side execution failure.
type failRequest struct {
	Error     string `json:"error"`
	Transient bool   `json:"transient"`
}

// apiError is the uniform error body (matches the jobs API).
type apiError struct {
	Error string `json:"error"`
}

// maxCompleteBody bounds completion payloads. Artifacts embed the full
// result wire JSON, so the ceiling is generous.
const maxCompleteBody = 16 << 20

// maxLeaseBody bounds the lease and renew bodies: a worker name and at
// most one progress span.
const maxLeaseBody = 4096

// Handler returns the coordinator's HTTP surface, routable under
// /v1/fleet/ (patterns carry full paths, so no prefix stripping).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fleet/lease", c.handleLease)
	mux.HandleFunc("POST /v1/fleet/lease/{id}/renew", c.handleRenew)
	mux.HandleFunc("POST /v1/fleet/lease/{id}/checkpoint", c.handleCheckpoint)
	mux.HandleFunc("POST /v1/fleet/lease/{id}/complete", c.handleComplete)
	mux.HandleFunc("POST /v1/fleet/lease/{id}/fail", c.handleFail)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var lr leaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxLeaseBody)).Decode(&lr); err != nil || lr.Worker == "" {
		writeError(w, http.StatusBadRequest, "lease request must name a worker")
		return
	}
	a, err := c.acquire(r.Context(), lr.Worker)
	if err != nil {
		// The poller went away; nothing to say and no one to say it to.
		return
	}
	if a == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, a)
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var rr renewRequest
	// The renew body is optional; an identified worker refreshes its
	// liveness horizon alongside the lease, and may piggyback progress.
	_ = json.NewDecoder(http.MaxBytesReader(w, r.Body, maxLeaseBody)).Decode(&rr)
	ttl, ok := c.renew(id, rr.Worker, rr.Progress)
	if !ok {
		writeError(w, http.StatusGone, "lease %s is gone; abandon the job", id)
		return
	}
	writeJSON(w, http.StatusOK, renewResponse{LeaseTTLMS: ttl.Milliseconds()})
}

func (c *Coordinator) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var cr checkpointRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCompleteBody)).Decode(&cr); err != nil || cr.Key == "" || len(cr.Snapshot) == 0 {
		writeError(w, http.StatusBadRequest, "checkpoint needs a key and a snapshot")
		return
	}
	switch err := c.checkpoint(id, cr.Key, cr.Snapshot); {
	case errors.Is(err, ErrLeaseGone):
		writeError(w, http.StatusGone, "lease %s is gone; checkpoint discarded", id)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "stored"})
	}
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCompleteBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read complete body: %v", err)
		return
	}
	switch err := c.complete(id, body); {
	case errors.Is(err, ErrLeaseGone):
		writeError(w, http.StatusGone, "lease %s is gone; result discarded", id)
	case errors.Is(err, ErrBadArtifact):
		writeError(w, http.StatusBadRequest, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "accepted"})
	}
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var fr failRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&fr); err != nil {
		writeError(w, http.StatusBadRequest, "invalid failure report: %v", err)
		return
	}
	if fr.Error == "" {
		fr.Error = "worker reported failure without detail"
	}
	if err := c.fail(id, fr.Error, fr.Transient); errors.Is(err, ErrLeaseGone) {
		writeError(w, http.StatusGone, "lease %s is gone; report discarded", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "recorded"})
}

// client is the worker-side protocol driver.
type client struct {
	base string
	hc   *http.Client
}

// postJSON POSTs v (pre-encoded when raw) and decodes into out if non-nil.
func (cl *client) post(path string, body []byte, out any) (int, error) {
	resp, err := cl.hc.Post(cl.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("fleet: decode response: %w", err)
		}
		return resp.StatusCode, nil
	}
	// Drain so the connection is reusable.
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

func (cl *client) lease(worker string) (*Assignment, error) {
	body, err := json.Marshal(leaseRequest{Worker: worker})
	if err != nil {
		return nil, err
	}
	var a Assignment
	code, err := cl.post("/v1/fleet/lease", body, &a)
	if err != nil {
		return nil, err
	}
	switch code {
	case http.StatusOK:
		return &a, nil
	case http.StatusNoContent:
		return nil, nil
	default:
		return nil, fmt.Errorf("fleet: lease poll: HTTP %d", code)
	}
}

func (cl *client) renew(leaseID string, rr renewRequest) (bool, error) {
	body, err := json.Marshal(rr)
	if err != nil {
		return false, err
	}
	code, err := cl.post("/v1/fleet/lease/"+leaseID+"/renew", body, nil)
	if err != nil {
		return false, err
	}
	return code == http.StatusOK, nil
}

func (cl *client) checkpoint(leaseID, key string, snapshot []byte) (int, error) {
	body, err := json.Marshal(checkpointRequest{Key: key, Snapshot: snapshot})
	if err != nil {
		return 0, err
	}
	return cl.post("/v1/fleet/lease/"+leaseID+"/checkpoint", body, nil)
}

func (cl *client) complete(leaseID string, env completeEnvelope) (int, error) {
	body, err := json.Marshal(env)
	if err != nil {
		return 0, err
	}
	return cl.post("/v1/fleet/lease/"+leaseID+"/complete", body, nil)
}

func (cl *client) fail(leaseID, msg string, transient bool) error {
	body, err := json.Marshal(failRequest{Error: msg, Transient: transient})
	if err != nil {
		return err
	}
	_, err = cl.post("/v1/fleet/lease/"+leaseID+"/fail", body, nil)
	return err
}
