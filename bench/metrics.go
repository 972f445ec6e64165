package main

// metricDef describes one reported metric. Both tables below must
// agree with BENCHMARK.json; a test checks that they do.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline's median by which an
	// end-to-end metric may worsen before -compare calls it a
	// regression; per-layer metrics have none.
	Bound float64
}

// endToEnd lists what a user of the system sees. Every one is
// reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.20},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"rss_mb_p90", "MiB", "lower", 0.15},
}

// failedFrac is end to end too, but lives outside BENCHMARK.json,
// whose metrics must never read 0: the driver takes failures from the
// "attempted" and "failed" keys of each run. -compare allows it no
// worsening at all.
var failedFrac = metricDef{"failed_frac", "ratio", "lower", 0}

// perLayer lists the traced suite's metrics; README.md says how each
// is measured and which slice is its home.
var perLayer = []metricDef{
	// paper-tables slice
	{"apps.body_ms", "ms", "lower", 0},
	{"apps.body_share", "ratio", "lower", 0},
	{"apps.frontend_ms", "ms", "lower", 0},
	{"machines.paper_callback_ms", "ms", "lower", 0},
	{"table.render_ms", "ms", "lower", 0},
	{"experiments.paper_residual_ms", "ms", "lower", 0},
	{"jade.paper_tasks", "count", "lower", 0},
	// workfree-sweep slice
	{"graph.capture_ms", "ms", "lower", 0},
	{"graph.captures", "count", "lower", 0},
	{"graph.fuse_ms", "ms", "lower", 0},
	{"graph.replay_self_ms", "ms", "lower", 0},
	{"graph.batch_gain", "ratio", "higher", 0},
	{"dash.handler_ms", "ms", "lower", 0},
	{"ipsc.handler_ms", "ms", "lower", 0},
	{"pgas.handler_ms", "ms", "lower", 0},
	{"cluster.handler_ms", "ms", "lower", 0},
	{"dash.ns_per_task", "ns", "lower", 0},
	{"ipsc.ns_per_task", "ns", "lower", 0},
	{"pgas.ns_per_task", "ns", "lower", 0},
	{"cluster.ns_per_task", "ns", "lower", 0},
	{"metrics.report_us", "us", "lower", 0},
	{"metrics.report_bytes", "B", "lower", 0},
	{"experiments.runner_residual_ms", "ms", "lower", 0},
	// serve-hot slice
	{"router.hop_us_p50", "us", "lower", 0},
	{"serve.hit_us_p50", "us", "lower", 0},
	{"serve.cache_hit_rate", "ratio", "higher", 0},
	// serve-cold slice
	{"serve.miss_ms_p50", "ms", "lower", 0},
	{"serve.lat_ms_p99", "ms", "lower", 0},
	{"serve.exec_ms_p50", "ms", "lower", 0},
	{"serve.overhead_ms_p50", "ms", "lower", 0},
	{"router.hedged_frac", "ratio", "lower", 0},
	{"router.hedge_win_frac", "ratio", "lower", 0},
	{"router.failovers", "count", "lower", 0},
	{"router.load_shifts", "count", "lower", 0},
	{"serve.deduped", "count", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	// probes
	{"sparse.setup_ms", "ms", "lower", 0},
	{"jade.sync_ns_per_access", "ns", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.allocs_per_kevent", "count", "lower", 0},
	{"experiments.canonicalize_us", "us", "lower", 0},
	{"obsv.overhead_frac", "ratio", "lower", 0},
	{"svcobs.span_overhead_frac", "ratio", "lower", 0},
	{"serve.http_us_p50", "us", "lower", 0},
	// simulated statistics, summed over the sweep's cells: they repeat
	// exactly, and "better" only names the direction the paper's
	// optimizations push them
	{"sim.exec_s_sum", "s", "lower", 0},
	{"jade.sweep_tasks", "count", "lower", 0},
	{"ipsc.msgs", "count", "lower", 0},
	{"ipsc.msg_bytes", "B", "lower", 0},
	{"dash.remote_bytes", "B", "lower", 0},
	{"dash.locality_pct", "%", "higher", 0},
	{"pgas.remote_gets", "count", "lower", 0},
	{"pgas.aggregated_msgs", "count", "higher", 0},
	{"fuse.tasks_fused", "count", "higher", 0},
	{"fuse.msgs_coalesced", "count", "higher", 0},
	{"fault.retransmits", "count", "lower", 0},
	// the run's own slice: tracing itself, and the Go runtime under it
	{"trace.op_ms_p50", "ms", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.accounted_frac", "ratio", "higher", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"go.heap_peak_mb", "MiB", "lower", 0},
}

// simStatNames are the per-layer metrics that are simulated
// statistics: -compare requires each to be identical in every run.
var simStatNames = map[string]bool{
	"sim.exec_s_sum": true, "jade.sweep_tasks": true,
	"ipsc.msgs": true, "ipsc.msg_bytes": true,
	"dash.remote_bytes": true, "dash.locality_pct": true,
	"pgas.remote_gets": true, "pgas.aggregated_msgs": true,
	"fuse.tasks_fused": true, "fuse.msgs_coalesced": true,
	"fault.retransmits": true,
}
