package cliflags

import (
	"flag"
	"fmt"

	"safeguard/internal/experiments"
	"safeguard/internal/resultcache"
	"safeguard/internal/telemetry"
)

// SnapshotFlags wires the checkpoint/warm-start flags shared by the cmd
// binaries. -snapshot names a directory used as a content-addressed
// snapshot store: sweeps deposit their expensive intermediate state
// there (post-warm-up sgsnap/1 captures for the perf tools, finished
// Monte-Carlo artifacts for sgrel). -resume additionally restores from
// matching entries instead of recomputing — restored runs are
// bit-identical to cold ones, so the only observable difference is
// wall-clock. Without -resume the store is deposit-only: runs refresh
// it but never trust prior contents.
type SnapshotFlags struct {
	// Dir is the snapshot store directory ("" = disabled).
	Dir string
	// Resume restores from the store instead of recomputing.
	Resume bool
}

// Snapshot registers -snapshot and -resume on the default FlagSet. Call
// before flag.Parse.
func Snapshot() *SnapshotFlags {
	sf := &SnapshotFlags{}
	flag.StringVar(&sf.Dir, "snapshot", "",
		"directory for checkpoint snapshots; sweeps deposit reusable state there")
	flag.BoolVar(&sf.Resume, "resume", false,
		"restore matching snapshots from the -snapshot directory instead of recomputing (results stay bit-identical)")
	return sf
}

// Validate rejects inconsistent selections: -resume is meaningless
// without a store to resume from.
func (sf *SnapshotFlags) Validate() error {
	if sf.Resume && sf.Dir == "" {
		return fmt.Errorf("-resume requires -snapshot DIR")
	}
	return nil
}

// Enabled reports whether a snapshot store is configured.
func (sf *SnapshotFlags) Enabled() bool { return sf.Dir != "" }

// WarmStore opens the store as the perf tools' warm-start pool, counting
// its traffic in reg: deposit-only unless -resume, nil without -snapshot.
func (sf *SnapshotFlags) WarmStore(reg *telemetry.Registry) (experiments.WarmStore, error) {
	if !sf.Enabled() {
		return nil, nil
	}
	store, err := resultcache.New(resultcache.Options{Dir: sf.Dir, Telemetry: reg})
	if err != nil {
		return nil, err
	}
	pool := resultcache.NewWarmPool(store)
	if !sf.Resume {
		return pool.DepositOnly(), nil
	}
	return pool, nil
}
