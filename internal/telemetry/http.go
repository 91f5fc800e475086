// Opt-in HTTP observability for long sweeps: the registry's live
// snapshot as JSON (/stats) and as a Prometheus exposition (/metrics),
// plus the standard pprof profiles, on a loopback (or operator-chosen)
// address. Nothing here runs unless a cmd passes -http (or a server
// mounts the handler); the simulation hot paths never touch this file.
package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns the observability mux by itself, for embedding into a
// larger server (sgserve mounts it next to its job API):
//
//	/debug/pprof/  the standard pprof handlers
//	/stats         the registry's deterministic JSON snapshot
//	/metrics       the Prometheus text exposition of the same snapshot
//
// The registry may be nil; /stats and /metrics then serve the empty
// snapshot. Each returned handler is scoped to the registry it was built
// with — two handlers in one process report their own registries.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PrometheusContentType)
		_ = WritePrometheus(w, reg.Snapshot())
	})
	return mux
}

// ServeHTTP starts a standalone server on addr wrapping Handler. It
// returns the bound address (useful with ":0") and a shutdown func.
func ServeHTTP(addr string, reg *Registry) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(reg)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
