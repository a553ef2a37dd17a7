package main

// metric is one reported metric's name and unit. The lists below are
// the benchmark's contract: BENCHMARK.json names exactly these (a test
// keeps the two in step), and every run prints every metric of its list.
type metric struct{ name, unit string }

// endToEndMetrics are printed by untraced runs (--trace 0).
var endToEndMetrics = []metric{
	{"setup_s", "s"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"requests_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are printed by traced runs (--trace 1). A metric of a
// layer the workload does not run reads 0.
var layerMetrics = []metric{
	{"fail_frac", "frac"},

	{"sim.events_per_op", "count"},
	{"sim.heap_lane_frac", "frac"},
	{"sim.ns_per_event", "ns"},
	{"sim.cpu_share", "frac"},

	{"cpu.uops_per_op", "count"},
	{"cpu.ipc", "uops/cycle"},
	{"cpu.rob_full_frac", "frac"},
	{"cpu.cache_retry_per_uop", "count"},
	{"cpu.mispredict_frac", "frac"},
	{"cpu.ns_per_uop", "ns"},
	{"cpu.cpu_share", "frac"},

	{"cache.l1d_hit_frac", "frac"},
	{"cache.l2_hit_frac", "frac"},
	{"cache.mshr_stalls_per_op", "count"},
	{"cache.prefetch_useful_frac", "frac"},
	{"cache.ns_per_access", "ns"},
	{"cache.cpu_share", "frac"},

	{"link.bytes_per_op", "bytes"},
	{"link.ns_per_packet", "ns"},
	{"link.cpu_share", "frac"},
	{"dram.reads_per_op", "count"},
	{"dram.activations_per_op", "count"},
	{"dram.ns_per_access", "ns"},
	{"dram.cpu_share", "frac"},

	{"hmc.instructions_per_op", "count"},
	{"hmc.window_reject_per_inst", "count"},
	{"hmc.cpu_share", "frac"},

	{"core.instructions_per_op", "count"},
	{"core.squash_frac", "frac"},
	{"core.squashed_dram_bytes_per_op", "bytes"},
	{"core.interlock_stall_frac", "frac"},
	{"core.ns_per_inst", "ns"},
	{"core.cpu_share", "frac"},

	{"query.prepare_ms", "ms"},
	{"query.emit_ns_per_uop", "ns"},
	{"query.verify_ms", "ms"},
	{"query.cpu_share", "frac"},
	{"query.alloc_share", "frac"},
	{"isa.cpu_share", "frac"},

	{"machine.new_ms", "ms"},
	{"machine.image_mb", "MB"},
	{"machine.cpu_share", "frac"},
	{"machine.alloc_share", "frac"},

	{"db.generate_ms", "ms"},
	{"db.reference_ms", "ms"},

	{"sweep.cpu_share", "frac"},
	{"stats.cpu_share", "frac"},

	{"cost.profile_us", "us"},
	{"cost.estimate_us", "us"},
	{"cost.pick_us", "us"},
	{"cost.cpu_share", "frac"},

	{"serve.allocs_per_request", "count"},
	{"serve.cpu_share", "frac"},
	{"serve.alloc_share", "frac"},
	{"serve.completed", "count"},
	{"serve.shed", "count"},
	{"serve.degraded", "count"},
	{"serve.sim_p50_cyc", "cycles"},
	{"serve.sim_p99_cyc", "cycles"},
	{"serve.slo_attain_batch", "frac"},
	{"serve.slo_attain_rt", "frac"},

	{"fault.retries_per_op", "count"},
	{"fault.hedges_per_op", "count"},
	{"fault.failovers_per_op", "count"},
	{"fault.cpu_share", "frac"},

	{"runtime.gc_share", "frac"},

	{"model.sim_cycles", "cycles"},
	{"model.dram_pj", "pJ"},
	{"model.squashed_dram_bytes", "bytes"},
	{"model.checked", "count"},

	{"trace.overhead_frac", "frac"},
	{"trace.stage_coverage_min", "frac"},
}

// cpuSharePackages are the packages whose CPU share is reported, and
// allocSharePackages those whose allocation share is.
var (
	cpuSharePackages   = []string{"sim", "cpu", "cache", "link", "dram", "hmc", "core", "query", "isa", "machine", "sweep", "stats", "cost", "serve", "fault"}
	allocSharePackages = []string{"query", "machine", "serve"}
)
