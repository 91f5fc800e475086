package cpu

import (
	"fmt"

	"safeguard/internal/attrib"
	"safeguard/internal/workload"
)

// EntryState is the serialized form of one reorder-buffer entry, in
// program order (Rob[0] is the ROB head wherever it sits in the core's
// ring). Dep is the rob index of the producer load an awaiting
// pointer-chase waits on (-1 for none); after a complete Cycle every
// producer an entry still waits on is itself in the ROB, so an index
// always suffices.
type EntryState struct {
	Seq        uint64          `json:"seq,omitempty"`
	Done       bool            `json:"done,omitempty"`
	CompleteAt int64           `json:"complete_at,omitempty"`
	Dep        int             `json:"dep"`
	Addr       uint64          `json:"addr,omitempty"`
	Load       bool            `json:"load,omitempty"`
	Probe      attrib.ProbeRef `json:"probe"`
}

// lastLoad sentinel values for CoreState.LastLoad (a rob index when >= 0).
const (
	// LastLoadNone: no load dispatched yet.
	LastLoadNone = -1
	// LastLoadRetired: the most recent load already retired; only its
	// completion facts survive (LastLoadDone/LastLoadCompleteAt).
	LastLoadRetired = -2
)

// CoreState is the complete serialized state of a Core at a cycle
// boundary. ROBSize/Width are configuration, not state: restore targets
// a core built with the same config.
type CoreState struct {
	NextSeq int64 `json:"next_seq"`
	Retired int64 `json:"retired"`
	Loads   int64 `json:"loads"`
	Stores  int64 `json:"stores"`

	Rob   []EntryState `json:"rob"`
	Await []int        `json:"await,omitempty"`

	LastLoad           int   `json:"last_load"`
	LastLoadDone       bool  `json:"last_load_done,omitempty"`
	LastLoadCompleteAt int64 `json:"last_load_complete_at,omitempty"`

	StalledStore *workload.Instr `json:"stalled_store,omitempty"`
}

// SaveState captures the core between Cycle calls. encExt interns a
// memory-system-owned prober and returns its ID; it may be nil when no
// external probes can be live (attribution off).
func (c *Core) SaveState(encExt func(attrib.Prober) (int, error)) (CoreState, error) {
	st := CoreState{
		NextSeq: int64(c.seq),
		Retired: c.Retired,
		Loads:   c.Loads,
		Stores:  c.Stores,
	}
	st.Rob = make([]EntryState, c.n)
	for i := range st.Rob {
		e := &c.rob[c.slot(i)]
		es := EntryState{
			Seq:        e.seq,
			Done:       e.done,
			CompleteAt: e.completeAt,
			Dep:        -1,
			Addr:       e.addr,
			Load:       e.load,
		}
		if e.dep != noDep {
			di := c.index(int(e.dep))
			if di >= i {
				return CoreState{}, fmt.Errorf("cpu: rob[%d] depends on an entry outside the ROB", i)
			}
			es.Dep = di
		}
		ref, err := encodeProbe(e.probe, encExt)
		if err != nil {
			return CoreState{}, fmt.Errorf("cpu: rob[%d]: %w", i, err)
		}
		es.Probe = ref
		st.Rob[i] = es
	}
	if len(c.await) > 0 {
		st.Await = make([]int, len(c.await))
		for i, s := range c.await {
			ai := c.index(int(s))
			if ai >= c.n {
				return CoreState{}, fmt.Errorf("cpu: await[%d] not in the ROB", i)
			}
			st.Await[i] = ai
		}
	}
	switch c.lastLoad {
	case LastLoadNone:
		st.LastLoad = LastLoadNone
	case LastLoadRetired:
		// Retired producer: dependence checks only read done/completeAt.
		st.LastLoad = LastLoadRetired
		st.LastLoadDone = c.lastDone
		st.LastLoadCompleteAt = c.lastCompleteAt
	default:
		st.LastLoad = c.index(int(c.lastLoad))
	}
	if c.hasStalled {
		in := c.stalledStore
		st.StalledStore = &in
	}
	return st, nil
}

// RestoreState rebuilds the core from a CoreState. decExt resolves an
// interned external-prober ID back to the live prober; it may be nil when
// the state holds no external probes. The core keeps its configured
// source, memory port, and attribution attachment. The restored ROB
// starts at ring slot 0; slot placement is invisible to the simulation.
func (c *Core) RestoreState(st CoreState, decExt func(int) (attrib.Prober, error)) error {
	if len(st.Rob) > len(c.rob) {
		return fmt.Errorf("cpu: state has %d ROB entries, core holds %d", len(st.Rob), len(c.rob))
	}
	rob := make([]robEntry, len(c.rob))
	tok := make([]int32, len(c.tokSlot))
	for i, es := range st.Rob {
		e := &rob[i]
		e.seq = es.Seq
		e.done = es.Done
		e.completeAt = es.CompleteAt
		e.addr = es.Addr
		e.load = es.Load
		e.dep = noDep
		if es.Dep != -1 {
			if es.Dep < 0 || es.Dep >= i {
				return fmt.Errorf("cpu: rob[%d] has dep %d (must name an older entry)", i, es.Dep)
			}
			e.dep = int32(es.Dep)
		}
		if es.Seq != 0 {
			k := es.Seq & c.tokMask
			if j := tok[k]; int(j) < i && rob[j].seq != 0 && rob[j].seq&c.tokMask == k {
				return fmt.Errorf("cpu: rob[%d] token %d collides with rob[%d] (tokens in the ROB span < %d values)",
					i, es.Seq, j, len(tok))
			}
			tok[k] = int32(i)
		}
		p, err := decodeProbe(es.Probe, decExt)
		if err != nil {
			return fmt.Errorf("cpu: rob[%d]: %w", i, err)
		}
		e.probe = p
	}
	await := make([]int32, 0, len(c.rob))
	for i, ai := range st.Await {
		if ai < 0 || ai >= len(st.Rob) {
			return fmt.Errorf("cpu: await[%d] index %d out of range", i, ai)
		}
		if rob[ai].dep == noDep {
			return fmt.Errorf("cpu: await[%d] names rob[%d], which waits on nothing", i, ai)
		}
		await = append(await, int32(ai))
	}
	var lastDone bool
	var lastCompleteAt int64
	switch {
	case st.LastLoad >= 0:
		if st.LastLoad >= len(st.Rob) {
			return fmt.Errorf("cpu: last_load index %d out of range", st.LastLoad)
		}
	case st.LastLoad == LastLoadNone:
	case st.LastLoad == LastLoadRetired:
		lastDone, lastCompleteAt = st.LastLoadDone, st.LastLoadCompleteAt
	default:
		return fmt.Errorf("cpu: invalid last_load %d", st.LastLoad)
	}
	copy(c.rob, rob)
	copy(c.tokSlot, tok)
	c.head, c.n = 0, len(st.Rob)
	c.await = await
	c.lastLoad = int32(st.LastLoad)
	c.lastDone, c.lastCompleteAt = lastDone, lastCompleteAt
	c.seq = uint64(st.NextSeq)
	c.Retired = st.Retired
	c.Loads = st.Loads
	c.Stores = st.Stores
	c.hasStalled = st.StalledStore != nil
	c.stalledStore = workload.Instr{}
	if c.hasStalled {
		c.stalledStore = *st.StalledStore
	}
	return nil
}

func encodeProbe(p attrib.Prober, encExt func(attrib.Prober) (int, error)) (attrib.ProbeRef, error) {
	switch v := p.(type) {
	case nil:
		return attrib.ProbeRef{Kind: attrib.ProbeRefNone}, nil
	case attrib.ConstProbe:
		return attrib.ProbeRef{Kind: attrib.ProbeRefConst, Comp: int(v)}, nil
	default:
		if encExt == nil {
			return attrib.ProbeRef{}, fmt.Errorf("external probe %T with no encoder", p)
		}
		id, err := encExt(p)
		if err != nil {
			return attrib.ProbeRef{}, err
		}
		return attrib.ProbeRef{Kind: attrib.ProbeRefExt, Ext: id}, nil
	}
}

func decodeProbe(ref attrib.ProbeRef, decExt func(int) (attrib.Prober, error)) (attrib.Prober, error) {
	switch ref.Kind {
	case attrib.ProbeRefNone:
		return nil, nil
	case attrib.ProbeRefConst:
		if ref.Comp < 0 || ref.Comp >= int(attrib.NumComponents) {
			return nil, fmt.Errorf("probe names component %d of %d", ref.Comp, attrib.NumComponents)
		}
		return attrib.ConstProbe(ref.Comp), nil
	case attrib.ProbeRefExt:
		if decExt == nil {
			return nil, fmt.Errorf("external probe %d with no decoder", ref.Ext)
		}
		return decExt(ref.Ext)
	default:
		return nil, fmt.Errorf("unknown probe kind %d", ref.Kind)
	}
}
