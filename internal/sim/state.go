package sim

// Checkpoint/restore of a complete System. SaveState freezes every piece
// of simulator state at an end-of-cycle boundary into plain serializable
// data; RestoreState rebuilds it into a freshly constructed System of the
// same Config. The contract, enforced by the restore-equals-uninterrupted
// suite (restore_test.go): continuing a restored system is bit-identical —
// IPC, controller stats, CPI stacks, plugin decisions, telemetry — to the
// run that was never interrupted, under either engine.
//
// In-flight request tracks (the attribution probes shared between MSHR
// entries and ROB entries) are interned into one table with deterministic
// IDs: first the live MSHR entries in ascending line order, then any
// completed tracks still referenced by ROB entries in core/ROB order.
// Restore rebuilds the table and re-links both sides, preserving the
// pointer sharing the live system had.

import (
	"fmt"
	"slices"
	"strconv"

	"safeguard/internal/attrib"
	"safeguard/internal/cache"
	"safeguard/internal/cpu"
	"safeguard/internal/itree"
	"safeguard/internal/memctrl"
	"safeguard/internal/snapshot"
	"safeguard/internal/telemetry"
	"safeguard/internal/workload"
)

// SnapshotKind is the sgsnap/1 kind tag of System snapshots.
const SnapshotKind = "sim-state"

// TrackState is one interned request track.
type TrackState struct {
	Line     uint64 `json:"line"`
	Deferred bool   `json:"deferred,omitempty"`
	DataDone bool   `json:"data_done,omitempty"`
	DoneAt   int64  `json:"done_at,omitempty"`
	Tail     int64  `json:"tail,omitempty"`
	MacTail  int64  `json:"mac_tail,omitempty"`
}

// WaiterState is one serialized MSHR waiter.
type WaiterState struct {
	Core    int    `json:"core"`
	Seq     uint64 `json:"seq,omitempty"`
	Deliver bool   `json:"deliver,omitempty"`
}

// MSHRState is one in-flight line fill. Entries are sorted by line.
type MSHRState struct {
	Line      uint64        `json:"line"`
	Waiters   []WaiterState `json:"waiters,omitempty"`
	DirtyFill bool          `json:"dirty_fill,omitempty"`
	Remaining int           `json:"remaining"`
	Latest    int64         `json:"latest,omitempty"`
	// Track is the entry's index into State.Tracks (-1 when untracked).
	Track int `json:"track"`
}

// MacWaiterState is one consumer of a merged MAC-line fetch.
type MacWaiterState struct {
	Line uint64 `json:"line,omitempty"`
	Drop bool   `json:"drop,omitempty"`
}

// MacFetchState is one in-flight merged MAC/metadata fetch. Entries are
// sorted by MAC line.
type MacFetchState struct {
	MacLine uint64           `json:"mac_line"`
	Waiters []MacWaiterState `json:"waiters"`
}

// DeferredReadState is one read parked outside a full controller queue.
// The line address is the token's low bits.
type DeferredReadState struct {
	Token uint64 `json:"token"`
	Track int    `json:"track"`
}

// State is a System's complete serializable state plus the config
// fingerprint restore validates against.
type State struct {
	Now      int64  `json:"now"`
	Scheme   int    `json:"scheme"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`

	Cores      []cpu.CoreState           `json:"cores"`
	Gens       []workload.GeneratorState `json:"gens"`
	L1         []cache.State             `json:"l1"`
	LLC        cache.State               `json:"llc"`
	Prefetcher cache.PrefetcherState     `json:"prefetcher"`
	Tree       *itree.TrafficState       `json:"tree,omitempty"`
	MC         *memctrl.ControllerState  `json:"mc"`

	Tracks        []TrackState        `json:"tracks,omitempty"`
	MSHR          []MSHRState         `json:"mshr,omitempty"`
	MacInflight   []MacFetchState     `json:"mac_inflight,omitempty"`
	PendingReads  []DeferredReadState `json:"pending_reads,omitempty"`
	PendingWrites []uint64            `json:"pending_writes,omitempty"`

	WarmCycle   []int64 `json:"warm_cycle"`
	DoneCycle   []int64 `json:"done_cycle"`
	Remaining   int     `json:"remaining"`
	WarmSnapped bool    `json:"warm_snapped,omitempty"`
	NextCkpt    int64   `json:"next_ckpt,omitempty"`

	CoreCPI []attrib.CPIStack `json:"core_cpi,omitempty"`
	WarmCPI []attrib.CPIStack `json:"warm_cpi,omitempty"`

	Telemetry *telemetry.Snapshot    `json:"telemetry,omitempty"`
	Trace     *telemetry.TracerState `json:"trace,omitempty"`
}

// SaveState freezes the system at an end-of-cycle boundary.
func (s *System) SaveState() (*State, error) {
	st := &State{
		Now:         s.now,
		Scheme:      int(s.cfg.Scheme),
		Workload:    s.cfg.Workload.Name,
		Seed:        s.cfg.Seed,
		Remaining:   s.remaining,
		WarmSnapped: s.warmSnapped,
		NextCkpt:    s.nextCkpt,
		WarmCycle:   append([]int64(nil), s.warmCycle...),
		DoneCycle:   append([]int64(nil), s.doneCycle...),
	}
	trackID := map[*reqTrack]int{}
	intern := func(tr *reqTrack) int {
		id, ok := trackID[tr]
		if !ok {
			id = len(st.Tracks)
			trackID[tr] = id
			st.Tracks = append(st.Tracks, TrackState{
				Line: tr.line, Deferred: tr.deferred, DataDone: tr.dataDone,
				DoneAt: tr.doneAt, Tail: tr.tail, MacTail: tr.macTail,
			})
		}
		return id
	}
	lines := make([]uint64, 0, len(s.mshr))
	for l := range s.mshr {
		lines = append(lines, l)
	}
	slices.Sort(lines)
	for _, l := range lines {
		e := s.mshr[l]
		ms := MSHRState{Line: l, DirtyFill: e.dirtyFill, Remaining: e.remaining, Latest: e.latest, Track: -1}
		for _, w := range e.waiters {
			ms.Waiters = append(ms.Waiters, WaiterState{Core: w.core, Seq: w.seq, Deliver: w.deliver})
		}
		if e.track != nil {
			ms.Track = intern(e.track)
		}
		st.MSHR = append(st.MSHR, ms)
	}
	encExt := func(p attrib.Prober) (int, error) {
		tr, ok := p.(*reqTrack)
		if !ok {
			return 0, fmt.Errorf("cannot serialize prober of type %T", p)
		}
		return intern(tr), nil
	}
	for i, c := range s.cores {
		cs, err := c.SaveState(encExt)
		if err != nil {
			return nil, fmt.Errorf("sim: save core %d: %w", i, err)
		}
		st.Cores = append(st.Cores, cs)
		gs, err := s.gens[i].SaveState()
		if err != nil {
			return nil, fmt.Errorf("sim: save generator %d: %w", i, err)
		}
		st.Gens = append(st.Gens, gs)
		st.L1 = append(st.L1, s.l1[i].SaveState())
	}
	st.LLC = s.llc.SaveState()
	st.Prefetcher = s.pf.SaveState()
	if s.tree != nil {
		t := s.tree.SaveState()
		st.Tree = &t
	}
	mcs, err := s.mc.SaveState()
	if err != nil {
		return nil, fmt.Errorf("sim: save controller: %w", err)
	}
	st.MC = mcs
	macLines := make([]uint64, 0, len(s.macInflight))
	for m := range s.macInflight {
		macLines = append(macLines, m)
	}
	slices.Sort(macLines)
	for _, m := range macLines {
		mf := MacFetchState{MacLine: m}
		for _, w := range s.macInflight[m] {
			mf.Waiters = append(mf.Waiters, MacWaiterState{Line: w.line, Drop: w.drop})
		}
		st.MacInflight = append(st.MacInflight, mf)
	}
	for _, d := range s.pendingReads.items() {
		dr := DeferredReadState{Token: d.token, Track: -1}
		if d.track != nil {
			dr.Track = intern(d.track)
		}
		st.PendingReads = append(st.PendingReads, dr)
	}
	st.PendingWrites = append([]uint64(nil), s.pendingWrites.items()...)
	if s.coreCPI != nil {
		for _, c := range s.coreCPI {
			st.CoreCPI = append(st.CoreCPI, *c)
		}
		st.WarmCPI = append([]attrib.CPIStack(nil), s.warmCPI...)
	}
	if s.cfg.Telemetry != nil {
		snap := s.cfg.Telemetry.Snapshot()
		st.Telemetry = &snap
	}
	if s.cfg.Trace != nil {
		st.Trace = s.cfg.Trace.SaveState()
	}
	return st, nil
}

// RestoreState rebuilds the state into this freshly constructed System.
// The snapshot must come from a System with the same Config (engine
// excepted: the state at a cycle boundary is engine-independent, so a
// snapshot captured under one engine restores under the other). The
// reader is strict — structural violations fail before the run can
// resume wrong. A failed restore leaves the System unusable.
func (s *System) RestoreState(st *State) error {
	if s.initErr != nil {
		return s.initErr
	}
	n := s.cfg.Cores
	switch {
	case st.Scheme != int(s.cfg.Scheme):
		return fmt.Errorf("sim: snapshot scheme %d, config %d", st.Scheme, int(s.cfg.Scheme))
	case st.Workload != s.cfg.Workload.Name:
		return fmt.Errorf("sim: snapshot workload %q, config %q", st.Workload, s.cfg.Workload.Name)
	case st.Seed != s.cfg.Seed:
		return fmt.Errorf("sim: snapshot seed %d, config %d", st.Seed, s.cfg.Seed)
	case st.Now < 1:
		return fmt.Errorf("sim: snapshot cycle %d before first cycle", st.Now)
	case len(st.Cores) != n || len(st.Gens) != n || len(st.L1) != n:
		return fmt.Errorf("sim: snapshot has %d/%d/%d cores/gens/l1s, config has %d cores",
			len(st.Cores), len(st.Gens), len(st.L1), n)
	case len(st.WarmCycle) != n || len(st.DoneCycle) != n:
		return fmt.Errorf("sim: snapshot has %d/%d warm/done crossings, config has %d cores",
			len(st.WarmCycle), len(st.DoneCycle), n)
	case st.Remaining < 0 || st.Remaining > n:
		return fmt.Errorf("sim: snapshot remaining %d outside [0,%d]", st.Remaining, n)
	case (st.Tree != nil) != (s.tree != nil):
		return fmt.Errorf("sim: snapshot and config disagree on integrity-tree presence")
	case st.MC == nil:
		return fmt.Errorf("sim: snapshot has no controller state")
	case s.cfg.Attrib && (len(st.CoreCPI) != n || len(st.WarmCPI) != n):
		return fmt.Errorf("sim: attribution on but snapshot has %d/%d CPI stacks", len(st.CoreCPI), len(st.WarmCPI))
	case !s.cfg.Attrib && (len(st.CoreCPI) > 0 || len(st.WarmCPI) > 0):
		return fmt.Errorf("sim: attribution off but snapshot carries CPI stacks")
	case (st.Telemetry != nil) != (s.cfg.Telemetry != nil):
		return fmt.Errorf("sim: snapshot and config disagree on telemetry presence")
	}
	tracks := make([]*reqTrack, len(st.Tracks))
	for i, ts := range st.Tracks {
		if ts.Line > s.lineMask {
			return fmt.Errorf("sim: track %d line %#x outside memory", i, ts.Line)
		}
		if !s.cfg.Attrib {
			return fmt.Errorf("sim: attribution off but snapshot carries request tracks")
		}
		tracks[i] = &reqTrack{
			sys: s, line: ts.Line, deferred: ts.Deferred, dataDone: ts.DataDone,
			doneAt: ts.DoneAt, tail: ts.Tail, macTail: ts.MacTail,
		}
	}
	mshr := make(map[uint64]*mshrEntry, len(st.MSHR))
	for i, ms := range st.MSHR {
		if i > 0 && ms.Line <= st.MSHR[i-1].Line {
			return fmt.Errorf("sim: mshr entries not sorted/unique at line %#x", ms.Line)
		}
		if ms.Line > s.lineMask {
			return fmt.Errorf("sim: mshr line %#x outside memory", ms.Line)
		}
		if ms.Remaining < 1 {
			return fmt.Errorf("sim: mshr line %#x in flight with %d outstanding legs", ms.Line, ms.Remaining)
		}
		e := &mshrEntry{dirtyFill: ms.DirtyFill, remaining: ms.Remaining, latest: ms.Latest}
		for _, w := range ms.Waiters {
			if w.Core < 0 || w.Core >= n {
				return fmt.Errorf("sim: mshr line %#x waiter core %d outside [0,%d)", ms.Line, w.Core, n)
			}
			if w.Deliver && w.Seq == 0 {
				return fmt.Errorf("sim: mshr line %#x delivering waiter without a token", ms.Line)
			}
			e.waiters = append(e.waiters, waiter{core: w.Core, seq: w.Seq, deliver: w.Deliver})
		}
		switch {
		case ms.Track == -1:
		case ms.Track >= 0 && ms.Track < len(tracks):
			e.track = tracks[ms.Track]
		default:
			return fmt.Errorf("sim: mshr line %#x track %d outside table", ms.Line, ms.Track)
		}
		mshr[ms.Line] = e
	}
	macInflight := make(map[uint64][]macWaiter, len(st.MacInflight))
	for i, mf := range st.MacInflight {
		if i > 0 && mf.MacLine <= st.MacInflight[i-1].MacLine {
			return fmt.Errorf("sim: mac fetches not sorted/unique at line %#x", mf.MacLine)
		}
		if mf.MacLine > s.lineMask {
			return fmt.Errorf("sim: mac line %#x outside memory", mf.MacLine)
		}
		if len(mf.Waiters) == 0 {
			return fmt.Errorf("sim: mac fetch %#x with no waiters", mf.MacLine)
		}
		ws := make([]macWaiter, 0, len(mf.Waiters))
		for _, w := range mf.Waiters {
			if !w.Drop {
				if _, ok := mshr[w.Line]; !ok {
					return fmt.Errorf("sim: mac fetch %#x joins line %#x with no mshr entry", mf.MacLine, w.Line)
				}
			}
			ws = append(ws, macWaiter{line: w.Line, drop: w.Drop})
		}
		macInflight[mf.MacLine] = ws
	}
	pendingReads := make([]deferredRead, 0, len(st.PendingReads))
	for _, dr := range st.PendingReads {
		line := dr.Token & (1<<tokKindShift - 1)
		switch dr.Token >> tokKindShift {
		case tokKindData:
			if _, ok := mshr[line]; !ok {
				return fmt.Errorf("sim: deferred data read of line %#x with no mshr entry", line)
			}
		case tokKindMAC:
			if _, ok := macInflight[line]; !ok {
				return fmt.Errorf("sim: deferred mac read of line %#x with no fetch entry", line)
			}
		default:
			return fmt.Errorf("sim: deferred read token %#x has unknown kind", dr.Token)
		}
		d := deferredRead{lineAddr: line, token: dr.Token}
		switch {
		case dr.Track == -1:
		case dr.Track >= 0 && dr.Track < len(tracks):
			d.track = tracks[dr.Track]
		default:
			return fmt.Errorf("sim: deferred read track %d outside table", dr.Track)
		}
		pendingReads = append(pendingReads, d)
	}
	for _, w := range st.PendingWrites {
		if w > s.lineMask {
			return fmt.Errorf("sim: deferred write of line %#x outside memory", w)
		}
	}
	decExt := func(id int) (attrib.Prober, error) {
		if id < 0 || id >= len(tracks) {
			return nil, fmt.Errorf("probe track %d outside table", id)
		}
		return tracks[id], nil
	}
	for i, c := range s.cores {
		if err := c.RestoreState(st.Cores[i], decExt); err != nil {
			return fmt.Errorf("sim: restore core %d: %w", i, err)
		}
		if err := s.gens[i].RestoreState(st.Gens[i]); err != nil {
			return fmt.Errorf("sim: restore generator %d: %w", i, err)
		}
		if err := s.l1[i].RestoreState(st.L1[i]); err != nil {
			return fmt.Errorf("sim: restore l1 %d: %w", i, err)
		}
	}
	if err := s.llc.RestoreState(st.LLC); err != nil {
		return fmt.Errorf("sim: restore llc: %w", err)
	}
	if err := s.pf.RestoreState(st.Prefetcher); err != nil {
		return fmt.Errorf("sim: restore prefetcher: %w", err)
	}
	if s.tree != nil {
		if err := s.tree.RestoreState(*st.Tree); err != nil {
			return fmt.Errorf("sim: restore metadata model: %w", err)
		}
	}
	if err := s.mc.RestoreState(st.MC); err != nil {
		return fmt.Errorf("sim: restore controller: %w", err)
	}
	if s.cfg.Attrib {
		for i := range s.coreCPI {
			*s.coreCPI[i] = st.CoreCPI[i]
		}
		copy(s.warmCPI, st.WarmCPI)
	}
	if s.cfg.Telemetry != nil {
		if err := s.cfg.Telemetry.Restore(*st.Telemetry); err != nil {
			return fmt.Errorf("sim: restore telemetry: %w", err)
		}
	}
	if s.cfg.Trace != nil || st.Trace != nil {
		if err := s.cfg.Trace.RestoreState(st.Trace); err != nil {
			return fmt.Errorf("sim: restore tracer: %w", err)
		}
	}
	s.mshr = mshr
	s.macInflight = macInflight
	s.pendingReads = fifo[deferredRead]{buf: pendingReads}
	s.pendingWrites = fifo[uint64]{buf: append([]uint64(nil), st.PendingWrites...)}
	s.now = st.Now
	s.remaining = st.Remaining
	copy(s.warmCycle, st.WarmCycle)
	copy(s.doneCycle, st.DoneCycle)
	s.warmSnapped = st.WarmSnapped
	s.nextCkpt = st.NextCkpt
	if s.cfg.CheckpointEvery > 0 && s.nextCkpt <= s.now {
		// Resuming under a checkpoint cadence the capturing run did not
		// have (or a coarser one): restart the grid from here.
		s.nextCkpt = s.now + s.cfg.CheckpointEvery
	}
	s.skipNextTry, s.skipBackoff = 0, 0
	return nil
}

// EncodeSnapshot serializes the system's current state as one sgsnap/1
// document (SaveState plus the envelope).
func (s *System) EncodeSnapshot() ([]byte, error) {
	st, err := s.SaveState()
	if err != nil {
		return nil, err
	}
	engine := s.cfg.Engine
	if engine == "" {
		engine = "event"
	}
	return snapshot.Encode(SnapshotKind, map[string]string{
		"cores":    strconv.Itoa(s.cfg.Cores),
		"cycle":    strconv.FormatInt(s.now, 10),
		"engine":   engine,
		"scheme":   s.cfg.Scheme.String(),
		"seed":     strconv.FormatUint(s.cfg.Seed, 10),
		"workload": s.cfg.Workload.Name,
	}, st)
}

// RestoreSnapshot decodes one sgsnap/1 document into this freshly
// constructed System (the inverse of EncodeSnapshot).
func (s *System) RestoreSnapshot(data []byte) error {
	var st State
	h, err := snapshot.Decode(data, &st)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if h.Kind != SnapshotKind {
		return fmt.Errorf("sim: snapshot kind %q, want %q", h.Kind, SnapshotKind)
	}
	return s.RestoreState(&st)
}
