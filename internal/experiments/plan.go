package experiments

import (
	"context"
	"fmt"
	"io"

	"safeguard/internal/report"
	"safeguard/internal/sim"
	"safeguard/internal/telemetry"
	"safeguard/internal/workload"
)

var macOrgs = []sim.Scheme{sim.SafeGuard, sim.SGXStyle, sim.SynergyStyle}

// Figure is one table of the perf figure suite: the slowdown of Schemes
// against Baseline on every workload and seed, and how it prints.
type Figure struct {
	Name      string // the figure's sgperf flag ("fig7", ...)
	Title     string
	Schemes   []sim.Scheme
	Headers   []string // scheme column labels (nil: the scheme names)
	Workloads []string // stands in for an empty PerfConfig.Workloads
	// Latencies sweeps the MAC latency, one table row of average
	// slowdowns per latency (Figure 13); nil runs PerfConfig's alone.
	Latencies   []int64
	PerWorkload bool // adds a base IPC column and a WORST row (one scheme)
}

// SuiteFigures lists the perf figure suite in sgperf's print order.
func SuiteFigures() []Figure {
	slowdown := []string{"slowdown"}
	return []Figure{
		{Name: "fig7", Title: "Figure 7: SafeGuard vs SECDED (slowdown per workload; paper avg 0.7%)",
			Schemes: []sim.Scheme{sim.SafeGuard}, Headers: slowdown, PerWorkload: true},
		{Name: "fig11", Title: "Figure 11: SafeGuard vs Chipkill (slowdown per workload; paper avg 0.7%)",
			Schemes: []sim.Scheme{sim.SafeGuard}, Headers: slowdown, PerWorkload: true},
		{Name: "fig12", Title: "Figure 12: MAC organizations (slowdown vs baseline; paper: SGX 18.7%, Synergy 7.8%, SafeGuard 0.7%)",
			Schemes: macOrgs},
		{Name: "fullsgx", Title: "Extension: full SGX (MAC + counters + integrity tree), the metadata the paper's comparison excluded",
			Schemes:   []sim.Scheme{sim.SafeGuard, sim.SGXStyle, sim.SGXFullStyle},
			Headers:   []string{"SafeGuard", "SGX-style (MAC only)", "SGX-full (counters+tree)"},
			Workloads: []string{"mcf", "omnetpp", "lbm", "gcc", "leela"}},
		{Name: "fig13", Title: "Figure 13: sensitivity to MAC latency (average slowdown; paper: SafeGuard 5.8% at 80 cycles)",
			Schemes: macOrgs, Latencies: []int64{8, 16, 40, 80}},
	}
}

func (f Figure) workloads(cfg PerfConfig) []string {
	switch {
	case len(cfg.Workloads) > 0:
		return cfg.Workloads
	case len(f.Workloads) > 0:
		return f.Workloads
	}
	return workload.Names()
}

func (f Figure) latencies(cfg PerfConfig) []int64 {
	if f.Latencies == nil {
		return []int64{cfg.MACLatencyCPU}
	}
	return f.Latencies
}

// cells lists the figure's cells in aggregation order: per latency, per
// workload, Baseline then each scheme, per seed.
func (f Figure) cells(cfg PerfConfig) []Cell {
	var out []Cell
	for _, lat := range f.latencies(cfg) {
		for _, name := range f.workloads(cfg) {
			for _, sch := range append([]sim.Scheme{sim.Baseline}, f.Schemes...) {
				for _, seed := range cfg.Seeds {
					out = append(out, Cell{Workload: name, Scheme: sch, Seed: seed,
						InstrPerCore: cfg.InstrPerCore, WarmupInstr: cfg.WarmupInstr, MACLatencyCPU: lat,
						Mitigation: cfg.Mitigation, RHThreshold: cfg.RHThreshold, Attrib: cfg.Attrib,
					}.canonical())
				}
			}
		}
	}
	return out
}

// FigureResult is one figure aggregated from its finished cells: Perf
// holds every workload whose cells all finished, Points (Latencies
// figures) every such latency.
type FigureResult struct {
	Figure
	Perf     PerfResult
	Points   []Figure13Point
	Complete bool // every cell of the figure finished
}

// result folds the figure's cells into rows: ipc[uses[j]] is the j-th
// cell of cells() and done[uses[j]] whether it finished.
func (f Figure) result(cfg PerfConfig, uses []int, ipc []float64, done []bool) FigureResult {
	out := FigureResult{Figure: f, Complete: true}
	next := 0
	for _, lat := range f.latencies(cfg) {
		res, whole := PerfResult{Schemes: f.Schemes}, true
		for _, name := range f.workloads(cfg) {
			mean := make([]float64, len(f.Schemes)+1) // Baseline first
			rowDone := true
			for si := range mean {
				var sum float64
				for range cfg.Seeds {
					rowDone = rowDone && done[uses[next]]
					sum += ipc[uses[next]]
					next++
				}
				mean[si] = sum / float64(len(cfg.Seeds))
			}
			if whole = whole && rowDone; !rowDone {
				continue
			}
			row := PerfRow{Workload: name, BaseIPC: mean[0], Slowdown: make(map[sim.Scheme]float64, len(f.Schemes))}
			for si, sch := range f.Schemes {
				row.Slowdown[sch] = mean[0]/mean[si+1] - 1
			}
			res.Rows = append(res.Rows, row)
		}
		out.Complete = out.Complete && whole
		switch {
		case f.Latencies == nil:
			out.Perf = res
		case whole:
			p := Figure13Point{MACLatencyCPU: lat, Average: make(map[sim.Scheme]float64, len(f.Schemes))}
			for _, sch := range f.Schemes {
				p.Average[sch] = res.Average(sch)
			}
			out.Points = append(out.Points, p)
		}
	}
	return out
}

// Plan is a set of perf figures run as one deduplicated cell set: every
// distinct cell is simulated once, in first-use order, and every figure
// is aggregated from the shared results.
type Plan struct {
	cfg   PerfConfig
	figs  []Figure
	cells []Cell  // distinct, in first-use order
	count []int   // uses of each cell
	uses  [][]int // per figure, the index in cells of each of its cells
}

// NewPlan plans figs, in order, over cfg's budgets and knobs.
func NewPlan(cfg PerfConfig, figs ...Figure) *Plan {
	p := &Plan{cfg: cfg, figs: figs}
	index := make(map[Cell]int)
	for _, f := range figs {
		var uses []int
		for _, c := range f.cells(cfg) {
			i, ok := index[c]
			if !ok {
				i = len(p.cells)
				index[c] = i
				p.cells, p.count = append(p.cells, c), append(p.count, 0)
			}
			p.count[i]++
			uses = append(uses, i)
		}
		p.uses = append(p.uses, uses)
	}
	return p
}

// Run simulates every distinct cell once and returns one result per
// figure. A cell used k times merges its telemetry into cfg.Telemetry k
// times and counts k experiments.runs, so the registry ends where running
// each figure on its own would leave it. On error or cancellation the
// figures are built from the cells that finished.
func (p *Plan) Run(ctx context.Context) ([]FigureResult, error) {
	ipc, done := make([]float64, len(p.cells)), make([]bool, len(p.cells))
	err := RunCells(ctx, p.cfg, p.cells, func(i int, res sim.Result, reg *telemetry.Registry) {
		ipc[i], done[i] = res.HarmonicMeanIPC(), true
		for range p.count[i] {
			p.cfg.Telemetry.Merge(reg)
			p.cfg.Telemetry.Counter("experiments.runs").Inc()
		}
	})
	out := make([]FigureResult, len(p.figs))
	for fi, f := range p.figs {
		out[fi] = f.result(p.cfg, p.uses[fi], ipc, done)
	}
	return out, err
}

// Render prints the figure's table and a blank line, as sgperf does.
func (r FigureResult) Render(w io.Writer) {
	defer fmt.Fprintln(w)
	if r.PerWorkload && len(r.Perf.Rows) == 0 {
		fmt.Fprintf(w, "%s\n  (no workload completed)\n", r.Title)
		return
	}
	cols := []string{"workload"}
	if r.Latencies != nil {
		cols[0] = "MAC latency (CPU cycles)"
	}
	if r.PerWorkload {
		cols = append(cols, "base IPC")
	}
	for i, s := range r.Schemes {
		if r.Headers != nil {
			cols = append(cols, r.Headers[i])
		} else {
			cols = append(cols, s.String())
		}
	}
	t := report.NewTable(r.Title, cols...)
	add := func(label, baseIPC string, slowdown func(sim.Scheme) float64) {
		cells := []string{label}
		if r.PerWorkload {
			cells = append(cells, baseIPC)
		}
		for _, s := range r.Schemes {
			cells = append(cells, report.Percent(slowdown(s)))
		}
		t.AddRowStrings(cells...)
	}
	for _, p := range r.Points {
		add(fmt.Sprint(p.MACLatencyCPU), "", func(s sim.Scheme) float64 { return p.Average[s] })
	}
	if r.Latencies == nil {
		for _, row := range r.Perf.Rows {
			add(row.Workload, fmt.Sprintf("%.3f", row.BaseIPC), func(s sim.Scheme) float64 { return row.Slowdown[s] })
		}
		add("AVERAGE", "", r.Perf.Average)
	}
	if r.PerWorkload {
		name, worst := r.Perf.Worst(r.Schemes[0])
		add("WORST ("+name+")", "", func(sim.Scheme) float64 { return worst })
	}
	t.Render(w)
}
