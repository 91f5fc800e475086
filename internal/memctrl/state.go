// Checkpoint support: the controller's complete dynamic state — queues,
// bank/rank timing, in-flight completions, VRR queue, retirement tables,
// drain mode, stats — as plain serializable data, plus the PluginState
// hook each mitigation implements so its tracking tables and RNG streams
// survive a checkpoint bit-identically.
//
// Only token-routed reads (EnqueueReadToken) can be in flight across a
// checkpoint: a closure callback cannot be serialized, so SaveState
// refuses while any callback read is queued or completing. Geometry,
// timing, and plugin attachment are configuration: restore targets a
// controller built identically and only rehydrates the dynamics.
package memctrl

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"

	"safeguard/internal/bloom"
	"safeguard/internal/dram"
)

// PluginState is implemented by plugins whose dynamic state must survive
// checkpoints. SaveState returns a self-contained blob; RestoreState
// rehydrates a freshly constructed plugin of the same configuration.
type PluginState interface {
	SaveState() ([]byte, error)
	RestoreState([]byte) error
}

// RequestState is one queued request in serialized form.
type RequestState struct {
	Line      uint64     `json:"line"`
	Coord     dram.Coord `json:"coord"`
	Enqueued  int64      `json:"enqueued"`
	Write     bool       `json:"write,omitempty"`
	ActIssued bool       `json:"act_issued,omitempty"`
	Remapped  bool       `json:"remapped,omitempty"`
	Token     uint64     `json:"token,omitempty"`
	HasToken  bool       `json:"has_token,omitempty"`
}

// CompletionState is one issued read waiting for its data cycle.
type CompletionState struct {
	At  int64        `json:"at"`
	Req RequestState `json:"req"`
}

// BankSnap mirrors bankState.
type BankSnap struct {
	OpenRow    int   `json:"open_row"`
	ActReadyAt int64 `json:"act_ready_at"`
	RdReadyAt  int64 `json:"rd_ready_at"`
	WrReadyAt  int64 `json:"wr_ready_at"`
	PreReadyAt int64 `json:"pre_ready_at"`
}

// RankSnap mirrors rankState.
type RankSnap struct {
	LastActAt     int64    `json:"last_act_at"`
	ActWindow     [4]int64 `json:"act_window"`
	ActWindowPos  int      `json:"act_window_pos"`
	NextRefreshAt int64    `json:"next_refresh_at"`
	RefreshUntil  int64    `json:"refresh_until"`
}

// VRRState is one queued victim-row refresh.
type VRRState struct {
	Rank int `json:"rank"`
	Bank int `json:"bank"`
	Row  int `json:"row"`
}

// RemapState is one retired-row indirection entry.
type RemapState struct {
	Rank  int `json:"rank"`
	Bank  int `json:"bank"`
	Row   int `json:"row"`
	Spare int `json:"spare"`
}

// DenialState mirrors denialRecord.
type DenialState struct {
	Rank int   `json:"rank"`
	Bank int   `json:"bank"`
	Row  int   `json:"row"`
	At   int64 `json:"at"`
}

// PluginBlob carries one attached plugin's saved state, in attach order.
type PluginBlob struct {
	Name  string          `json:"name"`
	State json.RawMessage `json:"state"`
}

// ControllerState is the controller's complete dynamic state.
type ControllerState struct {
	Now          int64             `json:"now"`
	BusFreeAt    int64             `json:"bus_free_at"`
	LastBusWrite bool              `json:"last_bus_write,omitempty"`
	Draining     bool              `json:"draining,omitempty"`
	ReadQ        []RequestState    `json:"read_q"`
	WriteQ       []RequestState    `json:"write_q"`
	Completions  []CompletionState `json:"completions"`
	Banks        [][]BankSnap      `json:"banks"`
	Ranks        []RankSnap        `json:"ranks"`
	VRRQ         []VRRState        `json:"vrr_q,omitempty"`
	SpareRows    int               `json:"spare_rows,omitempty"`
	SpareUsed    [][]int           `json:"spare_used,omitempty"`
	Remap        []RemapState      `json:"remap,omitempty"`
	LastDenied   DenialState       `json:"last_denied"`
	Stats        Stats             `json:"stats"`
	Plugins      []PluginBlob      `json:"plugins,omitempty"`
}

func saveRequest(r *request) (RequestState, error) {
	if !r.write && !r.hasToken {
		return RequestState{}, fmt.Errorf("memctrl: callback read of line %#x in flight (only token reads checkpoint)", r.lineAddr)
	}
	return RequestState{
		Line: r.lineAddr, Coord: r.coord, Enqueued: r.enqueued,
		Write: r.write, ActIssued: r.actIssued, Remapped: r.remapped,
		Token: r.token, HasToken: r.hasToken,
	}, nil
}

func restoreRequest(rs RequestState) *request {
	return &request{
		lineAddr: rs.Line, coord: rs.Coord, enqueued: rs.Enqueued,
		write: rs.Write, actIssued: rs.ActIssued, remapped: rs.Remapped,
		token: rs.Token, hasToken: rs.HasToken,
	}
}

// SaveState captures the controller between Tick calls. It fails when a
// closure-callback read is in flight, or when an attached plugin does not
// support checkpointing.
func (c *Controller) SaveState() (*ControllerState, error) {
	st := &ControllerState{
		Now:          c.now,
		BusFreeAt:    c.busFreeAt,
		LastBusWrite: c.lastBusWrite,
		Draining:     c.draining,
		ReadQ:        make([]RequestState, 0, len(c.readQ)),
		WriteQ:       make([]RequestState, 0, len(c.writeQ)),
		Completions:  make([]CompletionState, 0, len(c.completions)),
		SpareRows:    c.spareRows,
		LastDenied:   DenialState{Rank: c.lastDenied.rank, Bank: c.lastDenied.bank, Row: c.lastDenied.row, At: c.lastDenied.at},
		Stats:        c.Stats,
	}
	for _, r := range c.readQ {
		rs, err := saveRequest(r)
		if err != nil {
			return nil, err
		}
		st.ReadQ = append(st.ReadQ, rs)
	}
	for _, r := range c.writeQ {
		rs, err := saveRequest(r)
		if err != nil {
			return nil, err
		}
		st.WriteQ = append(st.WriteQ, rs)
	}
	for _, p := range c.completions {
		rs, err := saveRequest(p.req)
		if err != nil {
			return nil, err
		}
		st.Completions = append(st.Completions, CompletionState{At: p.at, Req: rs})
	}
	st.Banks = make([][]BankSnap, len(c.banks))
	for r := range c.banks {
		st.Banks[r] = make([]BankSnap, len(c.banks[r]))
		for b, bk := range c.banks[r] {
			st.Banks[r][b] = BankSnap{
				OpenRow: bk.openRow, ActReadyAt: bk.actReadyAt, RdReadyAt: bk.rdReadyAt,
				WrReadyAt: bk.wrReadyAt, PreReadyAt: bk.preReadyAt,
			}
		}
	}
	st.Ranks = make([]RankSnap, len(c.ranks))
	for r, rk := range c.ranks {
		st.Ranks[r] = RankSnap{
			LastActAt: rk.lastActAt, ActWindow: rk.actWindow, ActWindowPos: rk.actWindowPos,
			NextRefreshAt: rk.nextRefreshAt, RefreshUntil: rk.refreshUntil,
		}
	}
	for _, v := range c.vrrQ {
		st.VRRQ = append(st.VRRQ, VRRState{Rank: v.rank, Bank: v.bank, Row: v.row})
	}
	if c.spareUsed != nil {
		st.SpareUsed = make([][]int, len(c.spareUsed))
		for r := range c.spareUsed {
			st.SpareUsed[r] = append([]int(nil), c.spareUsed[r]...)
		}
	}
	for k, spare := range c.remap {
		st.Remap = append(st.Remap, RemapState{Rank: k.rank, Bank: k.bank, Row: k.row, Spare: spare})
	}
	sort.Slice(st.Remap, func(i, j int) bool {
		a, b := st.Remap[i], st.Remap[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Bank != b.Bank {
			return a.Bank < b.Bank
		}
		return a.Row < b.Row
	})
	for _, p := range c.plugins {
		ps, ok := p.(PluginState)
		if !ok {
			return nil, fmt.Errorf("memctrl: plugin %q does not support checkpointing", p.Name())
		}
		blob, err := ps.SaveState()
		if err != nil {
			return nil, fmt.Errorf("memctrl: save plugin %q: %w", p.Name(), err)
		}
		st.Plugins = append(st.Plugins, PluginBlob{Name: p.Name(), State: blob})
	}
	return st, nil
}

// RestoreState rehydrates a controller built with the same geometry,
// timing, and plugin attachment as the one that saved the state.
func (c *Controller) RestoreState(st *ControllerState) error {
	if len(st.Banks) != len(c.banks) || len(st.Ranks) != len(c.ranks) {
		return fmt.Errorf("memctrl: state has %d ranks (%d timing rows), controller has %d",
			len(st.Ranks), len(st.Banks), len(c.ranks))
	}
	for r := range st.Banks {
		if len(st.Banks[r]) != len(c.banks[r]) {
			return fmt.Errorf("memctrl: state rank %d has %d banks, controller has %d", r, len(st.Banks[r]), len(c.banks[r]))
		}
	}
	if len(st.ReadQ) > ReadQueueSize || len(st.WriteQ) > WriteQueueSize {
		return fmt.Errorf("memctrl: state queues (%d read, %d write) exceed capacity", len(st.ReadQ), len(st.WriteQ))
	}
	for _, q := range [2][]RequestState{st.ReadQ, st.WriteQ} {
		for _, rs := range q {
			if k := rs.Coord; k.Rank < 0 || k.Rank >= len(c.banks) || k.Bank < 0 || k.Bank >= len(c.banks[k.Rank]) {
				return fmt.Errorf("memctrl: queued line %#x names bank %d/%d outside the geometry", rs.Line, k.Rank, k.Bank)
			}
		}
	}
	if len(st.Plugins) != len(c.plugins) {
		return fmt.Errorf("memctrl: state has %d plugins, controller has %d attached", len(st.Plugins), len(c.plugins))
	}
	for i, blob := range st.Plugins {
		if c.plugins[i].Name() != blob.Name {
			return fmt.Errorf("memctrl: plugin %d is %q in state but %q attached", i, blob.Name, c.plugins[i].Name())
		}
		if _, ok := c.plugins[i].(PluginState); !ok {
			return fmt.Errorf("memctrl: plugin %q does not support checkpointing", blob.Name)
		}
	}

	c.now = st.Now
	c.busFreeAt = st.BusFreeAt
	c.lastBusWrite = st.LastBusWrite
	c.draining = st.Draining
	c.readQ = c.readQ[:0]
	for _, rs := range st.ReadQ {
		c.readQ = append(c.readQ, restoreRequest(rs))
	}
	c.writeQ = c.writeQ[:0]
	for _, rs := range st.WriteQ {
		c.writeQ = append(c.writeQ, restoreRequest(rs))
	}
	c.completions = c.completions[:0]
	for _, cs := range st.Completions {
		c.completions = append(c.completions, pendingCompletion{at: cs.At, req: restoreRequest(cs.Req)})
	}
	for r := range c.banks {
		for b := range c.banks[r] {
			s := st.Banks[r][b]
			c.banks[r][b] = bankState{
				openRow: s.OpenRow, actReadyAt: s.ActReadyAt, rdReadyAt: s.RdReadyAt,
				wrReadyAt: s.WrReadyAt, preReadyAt: s.PreReadyAt,
			}
		}
	}
	for _, r := range c.readQ {
		c.countQueued(r, 1)
	}
	for _, r := range c.writeQ {
		c.countQueued(r, 1)
	}
	for r := range c.ranks {
		s := st.Ranks[r]
		c.ranks[r] = rankState{
			lastActAt: s.LastActAt, actWindow: s.ActWindow, actWindowPos: s.ActWindowPos,
			nextRefreshAt: s.NextRefreshAt, refreshUntil: s.RefreshUntil,
		}
	}
	c.vrrQ = c.vrrQ[:0]
	for _, v := range st.VRRQ {
		c.vrrQ = append(c.vrrQ, vrrReq{rank: v.Rank, bank: v.Bank, row: v.Row})
	}
	c.spareRows = st.SpareRows
	c.spareUsed = nil
	if st.SpareUsed != nil {
		c.spareUsed = make([][]int, len(st.SpareUsed))
		for r := range st.SpareUsed {
			c.spareUsed[r] = append([]int(nil), st.SpareUsed[r]...)
		}
	}
	c.remap = make(map[rowKey]int, len(st.Remap))
	for _, e := range st.Remap {
		c.remap[rowKey{rank: e.Rank, bank: e.Bank, row: e.Row}] = e.Spare
	}
	c.lastDenied = denialRecord{rank: st.LastDenied.Rank, bank: st.LastDenied.Bank, row: st.LastDenied.Row, at: st.LastDenied.At}
	c.Stats = st.Stats
	for i, blob := range st.Plugins {
		if err := c.plugins[i].(PluginState).RestoreState(blob.State); err != nil {
			return fmt.Errorf("memctrl: restore plugin %q: %w", blob.Name, err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Plugin states
// ---------------------------------------------------------------------------

// rowCount serializes one row -> count pair (sorted by row for stability).
type rowCount struct {
	Row int `json:"row"`
	N   int `json:"n"`
}

func sortedRowCounts(m map[int]int) []rowCount {
	if len(m) == 0 {
		return nil
	}
	out := make([]rowCount, 0, len(m))
	for r, n := range m {
		out = append(out, rowCount{Row: r, N: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Row < out[j].Row })
	return out
}

func rowCountMap(l []rowCount) map[int]int {
	m := make(map[int]int, len(l))
	for _, rc := range l {
		m[rc.Row] = rc.N
	}
	return m
}

type paraState struct {
	RNG      []byte  `json:"rng"`
	Acts     float64 `json:"acts"`
	Triggers float64 `json:"triggers"`
	VRRs     float64 `json:"vrrs"`
}

// SaveState implements PluginState: the PCG stream position plus the
// undrained counters.
func (p *PARAPlugin) SaveState() ([]byte, error) {
	rng, err := p.src.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return json.Marshal(paraState{RNG: rng, Acts: p.acts, Triggers: p.triggers, VRRs: p.vrrs})
}

// RestoreState implements PluginState.
func (p *PARAPlugin) RestoreState(b []byte) error {
	var st paraState
	if err := json.Unmarshal(b, &st); err != nil {
		return err
	}
	if err := p.src.UnmarshalBinary(st.RNG); err != nil {
		return err
	}
	p.acts, p.triggers, p.vrrs = st.Acts, st.Triggers, st.VRRs
	return nil
}

type trrBankState struct {
	Rank          int        `json:"rank"`
	Bank          int        `json:"bank"`
	Counts        []rowCount `json:"counts,omitempty"`
	LastRefreshed []rowCount `json:"last_refreshed,omitempty"`
	RefIndex      int        `json:"ref_index,omitempty"`
}

type trrState struct {
	Banks []trrBankState `json:"banks,omitempty"`
	Acts  float64        `json:"acts"`
	VRRs  float64        `json:"vrrs"`
}

// SaveState implements PluginState.
func (t *TRRPlugin) SaveState() ([]byte, error) {
	st := trrState{Acts: t.acts, VRRs: t.vrrs}
	for _, k := range sortedBankKeys(t.banks) {
		b := t.banks[k]
		st.Banks = append(st.Banks, trrBankState{
			Rank: k.rank, Bank: k.bank,
			Counts:        sortedRowCounts(b.counts),
			LastRefreshed: sortedRowCounts(b.lastRefreshed),
			RefIndex:      b.refIndex,
		})
	}
	return json.Marshal(st)
}

// RestoreState implements PluginState.
func (t *TRRPlugin) RestoreState(data []byte) error {
	var st trrState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	t.banks = make(map[bankKey]*trrBank)
	t.keys = make(map[bankKey]struct{})
	for _, bs := range st.Banks {
		k := bankKey{rank: bs.Rank, bank: bs.Bank}
		t.banks[k] = &trrBank{
			counts:        rowCountMap(bs.Counts),
			lastRefreshed: rowCountMap(bs.LastRefreshed),
			refIndex:      bs.RefIndex,
		}
		t.keys[k] = struct{}{}
	}
	t.acts, t.vrrs = st.Acts, st.VRRs
	return nil
}

type grapheneBankState struct {
	Rank   int        `json:"rank"`
	Bank   int        `json:"bank"`
	Counts []rowCount `json:"counts,omitempty"`
	Spill  int        `json:"spill,omitempty"`
}

type rankCount struct {
	Rank int `json:"rank"`
	N    int `json:"n"`
}

func sortedRankCounts(m map[int]int) []rankCount {
	if len(m) == 0 {
		return nil
	}
	out := make([]rankCount, 0, len(m))
	for r, n := range m {
		out = append(out, rankCount{Rank: r, N: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

type grapheneState struct {
	Banks    []grapheneBankState `json:"banks,omitempty"`
	Refs     []rankCount         `json:"refs,omitempty"`
	Acts     float64             `json:"acts"`
	Triggers float64             `json:"triggers"`
	VRRs     float64             `json:"vrrs"`
}

// SaveState implements PluginState.
func (g *GraphenePlugin) SaveState() ([]byte, error) {
	st := grapheneState{Acts: g.acts, Triggers: g.triggers, VRRs: g.vrrs, Refs: sortedRankCounts(g.refs)}
	for _, k := range sortedBankKeys(g.banks) {
		b := g.banks[k]
		st.Banks = append(st.Banks, grapheneBankState{
			Rank: k.rank, Bank: k.bank, Counts: sortedRowCounts(b.counts), Spill: b.spill,
		})
	}
	return json.Marshal(st)
}

// RestoreState implements PluginState.
func (g *GraphenePlugin) RestoreState(data []byte) error {
	var st grapheneState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	g.banks = make(map[bankKey]*grapheneBank)
	for _, bs := range st.Banks {
		g.banks[bankKey{rank: bs.Rank, bank: bs.Bank}] = &grapheneBank{
			counts: rowCountMap(bs.Counts), spill: bs.Spill,
		}
	}
	g.refs = rowCountMap2(st.Refs)
	g.acts, g.triggers, g.vrrs = st.Acts, st.Triggers, st.VRRs
	return nil
}

func rowCountMap2(l []rankCount) map[int]int {
	m := make(map[int]int, len(l))
	for _, rc := range l {
		m[rc.Rank] = rc.N
	}
	return m
}

type bhFilterState struct {
	Rank     int    `json:"rank"`
	Bank     int    `json:"bank"`
	Counters []byte `json:"counters"` // little-endian uint32s (base64 in JSON)
}

type bhState struct {
	Filters   []bhFilterState `json:"filters,omitempty"`
	Refs      []rankCount     `json:"refs,omitempty"`
	Acts      float64         `json:"acts"`
	Throttled float64         `json:"throttled"`
}

// SaveState implements PluginState.
func (bh *BlockHammerPlugin) SaveState() ([]byte, error) {
	st := bhState{Acts: bh.acts, Throttled: bh.throttled, Refs: sortedRankCounts(bh.refs)}
	for _, k := range sortedBankKeys(bh.filters) {
		snap := bh.filters[k].Snapshot()
		buf := make([]byte, 4*len(snap))
		for i, v := range snap {
			binary.LittleEndian.PutUint32(buf[4*i:], v)
		}
		st.Filters = append(st.Filters, bhFilterState{Rank: k.rank, Bank: k.bank, Counters: buf})
	}
	return json.Marshal(st)
}

// RestoreState implements PluginState.
func (bh *BlockHammerPlugin) RestoreState(data []byte) error {
	var st bhState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	bh.filters = make(map[bankKey]*bloom.Counting)
	for _, fs := range st.Filters {
		if len(fs.Counters)%4 != 0 {
			return fmt.Errorf("blockhammer filter %d/%d has %d bytes (not uint32-aligned)", fs.Rank, fs.Bank, len(fs.Counters))
		}
		counters := make([]uint32, len(fs.Counters)/4)
		for i := range counters {
			counters[i] = binary.LittleEndian.Uint32(fs.Counters[4*i:])
		}
		f := bh.filter(bankKey{rank: fs.Rank, bank: fs.Bank})
		if err := f.Restore(counters); err != nil {
			return fmt.Errorf("blockhammer filter %d/%d: %w", fs.Rank, fs.Bank, err)
		}
	}
	bh.refs = rowCountMap2(st.Refs)
	bh.acts, bh.throttled = st.Acts, st.Throttled
	return nil
}

type quarRow struct {
	Rank int `json:"rank"`
	Bank int `json:"bank"`
	Row  int `json:"row"`
}

type quarState struct {
	Rows   []quarRow `json:"rows,omitempty"`
	Denied uint64    `json:"denied"`
	Added  uint64    `json:"added"`
}

// SaveState implements PluginState.
func (g *QuarantineGate) SaveState() ([]byte, error) {
	st := quarState{Denied: g.denied, Added: g.added}
	for k := range g.rows {
		st.Rows = append(st.Rows, quarRow{Rank: k.rank, Bank: k.bank, Row: k.row})
	}
	sort.Slice(st.Rows, func(i, j int) bool {
		a, b := st.Rows[i], st.Rows[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Bank != b.Bank {
			return a.Bank < b.Bank
		}
		return a.Row < b.Row
	})
	return json.Marshal(st)
}

// RestoreState implements PluginState.
func (g *QuarantineGate) RestoreState(data []byte) error {
	var st quarState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	g.rows = make(map[rowKey]bool, len(st.Rows))
	for _, r := range st.Rows {
		g.rows[rowKey{rank: r.Rank, bank: r.Bank, row: r.Row}] = true
	}
	g.denied, g.added = st.Denied, st.Added
	return nil
}

// sortedBankKeys orders a per-bank table's keys (rank-major) for stable
// serialization.
func sortedBankKeys[V any](m map[bankKey]V) []bankKey {
	out := make([]bankKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].rank != out[j].rank {
			return out[i].rank < out[j].rank
		}
		return out[i].bank < out[j].bank
	})
	return out
}
