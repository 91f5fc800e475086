// Shared observability flags: every cmd binary exposes the same -stats,
// -trace and -http trio, wired through TelemetryFlags so the flag
// semantics (validation, output destinations, the opt-in debug endpoint)
// are identical everywhere.
package cliflags

import (
	"flag"
	"fmt"
	"os"

	"safeguard/internal/telemetry"
)

// TelemetryFlags holds the parsed observability flag values plus the
// registry/tracer they activate. The zero flags (nothing requested)
// leave Registry and Tracer nil, which every simulator treats as
// telemetry-off at zero cost.
type TelemetryFlags struct {
	stats    string
	trace    string
	httpAddr string

	// Registry is non-nil when -stats or -http was given.
	Registry *telemetry.Registry
	// Tracer is non-nil when -trace was given.
	Tracer *telemetry.Tracer

	meta     map[string]string
	stopHTTP func() error
}

// SetTraceMeta annotates the -trace file's header ("# meta key=value").
// Tools stamp what they know — tool name, scheme, geometry — so a trace
// artifact stays self-describing. No-op when -trace was not given.
func (tf *TelemetryFlags) SetTraceMeta(key, value string) {
	if tf.meta == nil {
		tf.meta = map[string]string{}
	}
	tf.meta[key] = value
}

// Telemetry registers -stats, -trace and -http on the default FlagSet.
// Call before flag.Parse, then Activate after it, and Finish once the
// experiments are done.
func Telemetry() *TelemetryFlags {
	tf := &TelemetryFlags{}
	flag.StringVar(&tf.stats, "stats", "", `print run telemetry on exit: "text" or "json"`)
	flag.StringVar(&tf.trace, "trace", "", "write the cycle-stamped event trace to this file")
	flag.StringVar(&tf.httpAddr, "http", "", "serve /stats, /metrics and /debug/pprof on this address (e.g. localhost:8080)")
	return tf
}

// Activate validates the parsed values and builds the registry, tracer
// and (when requested) the debug HTTP endpoint. Must run after
// flag.Parse and before the experiments.
func (tf *TelemetryFlags) Activate() error {
	switch tf.stats {
	case "", "text", "json":
	default:
		return fmt.Errorf(`-stats must be "text" or "json" (got %q)`, tf.stats)
	}
	if tf.stats != "" || tf.httpAddr != "" {
		tf.Registry = telemetry.NewRegistry()
	}
	if tf.trace != "" {
		tf.Tracer = telemetry.NewTracer(0)
	}
	if tf.httpAddr != "" {
		addr, stop, err := telemetry.ServeHTTP(tf.httpAddr, tf.Registry)
		if err != nil {
			return err
		}
		tf.stopHTTP = stop
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/stats and /debug/pprof\n", addr)
	}
	return nil
}

// Finish emits the requested outputs — the event trace to its file, the
// stats snapshot to stdout — and shuts the HTTP endpoint down. Safe to
// call when nothing was activated.
func (tf *TelemetryFlags) Finish() error {
	if tf.stopHTTP != nil {
		_ = tf.stopHTTP()
		tf.stopHTTP = nil
	}
	if tf.Tracer != nil && tf.trace != "" {
		f, err := os.Create(tf.trace)
		if err != nil {
			return err
		}
		if err := telemetry.WriteTraceFile(f, tf.meta, tf.Tracer); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	switch tf.stats {
	case "text":
		return tf.Registry.Snapshot().WriteText(os.Stdout)
	case "json":
		return tf.Registry.Snapshot().WriteJSON(os.Stdout)
	}
	return nil
}

// MustFinish is Finish for main-function tails: a failed write (bad
// -trace path, closed stdout) exits non-zero instead of being dropped.
func (tf *TelemetryFlags) MustFinish() {
	if err := tf.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: telemetry: %v\n", os.Args[0], err)
		os.Exit(1)
	}
}
