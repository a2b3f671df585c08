package main

// metricDef is one reported metric. BENCHMARK.json repeats name, unit
// and direction (and holds the regression bounds of the end-to-end
// metrics); a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// The interaction table, written down before measuring: the layer
	// (a module of this repo) the metric belongs to, the end-to-end
	// metrics an improvement of it should move, and the workload on
	// which it should show. Empty moves: a guard or a denominator.
	layer string
	moves []string
	on    string
}

// endToEnd is what a client of olapserve sees, measured with tracing
// off. Failures are not a metric here: every result line carries
// attempted and failed, and any failure fails the run. Tail latency
// (p90, p99) is printed as a diagnostic only: on the shared dev host
// its spread over ten seeds reached 36%, beyond any bound the driver
// accepts.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "qps", unit: "1/s", better: "higher"},
	{name: "lat_p50_ms", unit: "ms", better: "lower"},
	{name: "cpu_ms_per_query", unit: "ms", better: "lower"},
	{name: "rss_peak_mb", unit: "MiB", better: "lower"},
}

const (
	srvFrame = "server (admission, ticket, goroutine, span tree, plan-cache hit)"
	srvCache = "server (plancache.go)"
	relopK   = "engine/relop fast kernels + FinalizeProbed"
	measured = "engine/typer, probe, mem, cpu (host time)"
)

var (
	qpsLat    = []string{"qps", "lat_p50_ms"}
	qpsLatCPU = []string{"qps", "lat_p50_ms", "cpu_ms_per_query"}
)

// perLayer is what the traced run reports.
var perLayer = []metricDef{
	{"net.self_us", "us", "lower", "cmd/olapserve + loopback", []string{"lat_p50_ms"}, "fast_frame"},
	{"olapserve.ready_s", "s", "lower", "cmd/olapserve + loopback", []string{"setup_s"}, "all"},
	{"olapserve.connect_us", "us", "lower", "cmd/olapserve + loopback", []string{"setup_s"}, "all"},
	{"session.self_us", "us", "lower", "server (session.go)", []string{"qps", "cpu_ms_per_query"}, "fast_frame"},
	{"session.allocs_per_op", "count", "lower", "server (session.go)", []string{"qps", "cpu_ms_per_query"}, "fast_frame"},
	{"server.frame_self_us", "us", "lower", srvFrame, qpsLat, "fast_frame"},
	{"server.submit_noop_us", "us", "lower", srvFrame, qpsLat, "fast_frame"},
	{"server.submit_noop_allocs", "count", "lower", srvFrame, qpsLat, "fast_frame"},
	{"server.submit_noop_bytes", "B", "lower", srvFrame, qpsLat, "fast_frame"},
	{"server.metrics_scrape_us", "us", "lower", "server (telemetry.go)", nil, ""},
	{"server.stats_us", "us", "lower", "server (telemetry.go)", nil, ""},
	{"plancache.hit_ratio", "ratio", "higher", srvCache, qpsLat, "adhoc_compile"},
	{"plancache.evictions_per_kq", "1/kq", "lower", srvCache, qpsLat, "adhoc_compile"},
	{"plancache.dedups_per_kq", "1/kq", "higher", srvCache, qpsLat, "adhoc_compile"},
	{"sql.frontend_us", "us", "lower", "sql (lexer, normalize, params)", []string{"cpu_ms_per_query"}, "fast_frame"},
	{"sql.parse_us", "us", "lower", "sql (parser)", []string{"cpu_ms_per_query"}, "adhoc_compile"},
	{"sql.compile_us.lineitem", "us", "lower", "sql (plan, cost)", qpsLat, "adhoc_compile"},
	{"sql.compile_us.small", "us", "lower", "sql (plan, cost)", qpsLat, "adhoc_compile"},
	{"sql.bind_us.lineitem", "us", "lower", "sql (plan, cost)", qpsLat, "adhoc_compile"},
	{"sql.bind_us.small", "us", "lower", "sql (plan, cost)", qpsLat, "adhoc_compile"},
	{"sql.compile_allocs", "count", "lower", "sql (plan, cost)", qpsLat, "adhoc_compile"},
	{"relop.fast_compile_us", "us", "lower", "engine/relop (CompileFast)", qpsLat, "adhoc_compile"},
	{"relop.fast.q6.ns_per_row", "ns/row", "lower", relopK, qpsLatCPU, "fast_scan"},
	{"relop.fast.q6.gbps", "GB/s", "higher", relopK, qpsLatCPU, "fast_scan"},
	{"relop.fast.q1_fused.ns_per_row", "ns/row", "lower", relopK, qpsLatCPU, "fast_scan"},
	{"relop.fast.q1_fused.gbps", "GB/s", "higher", relopK, qpsLatCPU, "fast_scan"},
	{"relop.fast.q1_expr.ns_per_row", "ns/row", "lower", relopK, qpsLatCPU, "fast_scan"},
	{"relop.fast.q1_expr.gbps", "GB/s", "higher", relopK, qpsLatCPU, "fast_scan"},
	{"relop.fast.minmax.ns_per_row", "ns/row", "lower", relopK, qpsLatCPU, "fast_scan"},
	{"relop.fast.minmax.gbps", "GB/s", "higher", relopK, qpsLatCPU, "fast_scan"},
	{"relop.fast.hashgrp_topk.ns_per_row", "ns/row", "lower", relopK, qpsLatCPU, "fast_scan"},
	{"relop.fast.hashgrp_topk.gbps", "GB/s", "higher", relopK, qpsLatCPU, "fast_scan"},
	{"relop.fast.q6.scale_x", "x", "higher", relopK, []string{"lat_p50_ms"}, "fast_scan"},
	{"relop.fast.q6.bw_frac", "ratio", "higher", relopK, []string{"lat_p50_ms"}, "fast_scan"},
	{"host.seq_read_gbps_1t", "GB/s", "higher", "host calibration", nil, ""},
	{"host.seq_read_gbps_nt", "GB/s", "higher", "host calibration", nil, ""},
	{"engine.fastjoin.ns_per_row.join2", "ns/row", "lower", "engine/typer, engine/parallel (nil probe)", qpsLat, "fast_join"},
	{"engine.fastjoin.ns_per_row.q3", "ns/row", "lower", "engine/typer, engine/parallel (nil probe)", qpsLat, "fast_join"},
	{"engine.fastjoin.allocs_per_query", "count", "lower", "engine/typer, engine/parallel (nil probe)", qpsLat, "fast_join"},
	{"engine.measured.host_ns_per_row.q6", "ns/row", "lower", measured, []string{"qps"}, "measured_profile"},
	{"engine.measured.host_ns_per_row.join2", "ns/row", "lower", measured, []string{"qps"}, "measured_profile"},
	{"engine.measured.bytes_per_query", "B", "lower", measured, []string{"rss_peak_mb"}, "measured_profile"},
	{"sim.events_per_host_s", "1/s", "higher", measured, []string{"qps"}, "measured_profile"},
	{"sim.ms.q6", "ms", "lower", "tmam (simulated time, must repeat exactly)", nil, ""},
	{"sim.ms.q1_fused", "ms", "lower", "tmam (simulated time, must repeat exactly)", nil, ""},
	{"sim.ms.join2", "ms", "lower", "tmam (simulated time, must repeat exactly)", nil, ""},
	{"probe.new_us", "us", "lower", "probe", []string{"cpu_ms_per_query"}, "measured_profile"},
	{"probe.new_bytes", "B", "lower", "probe", []string{"cpu_ms_per_query", "rss_peak_mb"}, "measured_profile"},
	{"probe.seqload_ns_per_line", "ns/line", "lower", "probe", []string{"cpu_ms_per_query"}, "measured_profile"},
	{"probe.load_rand_ns", "ns", "lower", "probe", []string{"cpu_ms_per_query"}, "measured_profile"},
	{"probe.branch_ns", "ns", "lower", "probe", []string{"cpu_ms_per_query"}, "measured_profile"},
	{"probe.alu_ns", "ns", "lower", "probe", []string{"cpu_ms_per_query"}, "measured_profile"},
	{"mem.load_seq_ns_per_line", "ns/line", "lower", "mem", []string{"cpu_ms_per_query"}, "measured_profile"},
	{"mem.load_rand_ns", "ns", "lower", "mem", []string{"cpu_ms_per_query"}, "measured_profile"},
	{"obs.span_tree_us", "us", "lower", "obs", []string{"qps"}, "fast_frame"},
	{"obs.hist_observe_ns", "ns", "lower", "obs", []string{"qps"}, "fast_frame"},
	{"tpch.generate_s", "s", "lower", "tpch", []string{"setup_s"}, "all"},
	{"trace.overhead_ratio", "ratio", "lower", "the benchmark itself", nil, ""},
}

// exactRepeat are the per-layer counts that must not move at all
// between two runs of one build: a simulator speed-up leaves simulated
// time identical.
var exactRepeat = []string{"sim.ms.q6", "sim.ms.q1_fused", "sim.ms.join2"}
