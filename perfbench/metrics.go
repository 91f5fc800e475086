package main

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract: BENCHMARK.json at the repository root carries
// the same names and units (TestBenchmarkJSONMatchesMetricLists).
type metricDef struct{ name, unit string }

// endToEnd metrics come from the untraced run. Every workload reports
// every one of them; the README says what a "unit" and a "cached" unit
// are for each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"unit_p50_ms", "ms"},
	{"unit_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"cached_p50_ms", "ms"},
}

// codecs are the integrity-rw codec labels, in report order.
var codecs = []string{"secded", "sg-secded", "chipkill", "sg-chipkill"}

// profiledLayers are the program packages (plus the Go runtime) whose
// share of sampled CPU self time the traced run reports as
// <layer>.self_frac.
var profiledLayers = []string{
	"experiments", "sim", "cpu", "cache", "memctrl", "workload",
	"faultsim", "faultmodel", "jobs", "resultcache", "synth", "payload",
	"rowhammer", "memsys", "ecc", "mac", "qarma", "runtime",
}

// perLayer metrics come from the traced run. Every workload reports every
// one; a layer the workload never calls reads 0.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"trace.overhead_ms", "ms"},
		{"trace.overhead_frac", "frac"},
		{"trace.spans", "count"},
		{"profile.samples", "count"},

		{"experiments.pool_idle_frac", "frac"},
		{"sim.new_ms", "ms"},
		{"sim.run_ms", "ms"},
		{"sim.host_ns_per_instr.membound", "ns"},
		{"sim.host_ns_per_instr.computebound", "ns"},
		{"sim.host_ns_per_cycle", "ns"},
		{"cpu.instr", "count"},
		{"cache.llc_accesses", "count"},
		{"cache.llc_miss_ratio", "frac"},
		{"cache.prefetches", "count"},
		{"memctrl.dram_reads", "count"},
		{"memctrl.dram_writes", "count"},
		{"memctrl.row_hit_rate", "frac"},
		{"memctrl.read_queue_full", "count"},
		{"memctrl.vrrs", "count"},
		{"runtime.alloc_bytes_per_unit", "B"},
		{"runtime.mallocs_per_unit", "count"},
		{"runtime.gc_frac", "frac"},

		{"faultsim.exec_ms", "ms"},
		{"faultsim.ns_per_module.secded", "ns"},
		{"faultsim.ns_per_module.chipkill", "ns"},
		{"faultsim.modules", "count"},
		{"faultsim.failed", "count"},
		{"jobs.queue_wait_ms", "ms"},
		{"jobs.finish_ms", "ms"},
		{"jobs.http_ms", "ms"},
		{"resultcache.hit_ratio", "frac"},

		{"synth.search_ms", "ms"},
		{"synth.evals", "count"},
		{"synth.ms_per_eval", "ms"},
		{"synth.nightly_ms", "ms"},
		{"payload.run_ms", "ms"},
		{"payload.acts_per_ms", "1/ms"},

		{"memsys.reads", "count"},
		{"memsys.writes", "count"},
		{"memsys.corrected", "count"},
		{"memsys.dues", "count"},
		{"memsys.silent", "count"},
		{"ecc.faulty_mac_checks", "count"},
		{"mac.mac_ns", "ns"},
		{"qarma.encrypt_ns", "ns"},
	}
	for _, c := range codecs {
		m = append(m, metricDef{"memsys.write_us." + c, "us"})
		for _, st := range []string{"ok", "corrected", "due"} {
			m = append(m, metricDef{"memsys.read_us." + c + "." + st, "us"})
		}
		m = append(m, metricDef{"ecc.mac_checks_per_read." + c, "count"})
	}
	for _, l := range profiledLayers {
		m = append(m, metricDef{l + ".self_frac", "frac"})
	}
	return m
}()
