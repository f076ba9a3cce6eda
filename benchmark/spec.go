package main

// metricSpec declares one metric: its printed name, unit, direction and
// (end-to-end only) the share of the parent's median by which it may
// worsen. BENCHMARK.json at the repository root repeats these tables for
// the driver; selftest_test.go fails when the two disagree.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// Units: host-clock times are plain "s"/"us"; virtual-clock times are
// "virt_us" so the two clocks can never be confused in a results table —
// a virtual time is the model's answer and repeats exactly for a seed, a
// host time is the simulator's cost and never does.
var endToEndSpec = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"host_us_per_op", "us", "lower", 0.20},
	{"host_allocs_per_op", "count", "lower", 0.05},
	{"host_alloc_kb_per_op", "KB", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"sim_events_per_op", "count", "lower", 0.05},
	{"virt_latency_p50_us", "virt_us", "lower", 0.05},
	{"virt_latency_p99_us", "virt_us", "lower", 0.03},
	{"virt_goodput_mb_s", "MB/s", "higher", 0.06},
	{"virt_ok_ops_per_s", "1/s", "higher", 0.06},
	{"ok_frac", "frac", "higher", 0.06},
	{"ops", "count", "higher", 0.01},
}

// exactMetrics must be bit-identical between two runs with the same seed:
// they are functions of the model alone.
var exactMetrics = []string{
	"sim_events_per_op", "virt_latency_p50_us", "virt_latency_p99_us",
	"virt_goodput_mb_s", "virt_ok_ops_per_s", "ok_frac", "ops",
}

// perLayerSpec lists every per-layer metric of the traced run, grouped by
// the layer that owns it. A metric that does not apply to a workload is
// printed as "n/a" in the table and as 0 in the JSON line.
var perLayerSpec = []metricSpec{
	{"sim.host_ns_per_event", "ns", "lower", 0},
	{"sim.peak_heap_len", "count", "lower", 0},
	{"sim.compactions", "count", "lower", 0},
	{"sim.probe_dispatch_ns", "ns", "lower", 0},
	{"sim.probe_switch_ns", "ns", "lower", 0},
	{"sim.probe_timer_cancel_ns", "ns", "lower", 0},
	{"sim.maxprocs_penalty_ratio", "ratio", "lower", 0},
	{"hostcpu.probe_poll_sample_ns", "ns", "lower", 0},

	{"bus.pci_busy_frac", "frac", "lower", 0},
	{"bus.host_dma_busy_frac", "frac", "lower", 0},
	{"bus.host_dma_wait_us_per_op", "virt_us", "lower", 0},
	{"bus.dma_transfers_per_op", "count", "lower", 0},

	{"lanai.send_dma_busy_frac", "frac", "lower", 0},
	{"lanai.recv_dma_busy_frac", "frac", "lower", 0},
	{"lanai.sram_peak_frac", "frac", "lower", 0},
	{"lanai.interrupts_per_op", "count", "lower", 0},
	{"lanai.retx_per_kop", "count", "lower", 0},
	{"lanai.rl_stalls_per_kop", "count", "lower", 0},
	{"lanai.rl_window_peak_frac", "frac", "lower", 0},

	{"myrinet.link_busy_frac", "frac", "lower", 0},
	{"myrinet.link_wait_us_per_op", "virt_us", "lower", 0},
	{"myrinet.packets_per_op", "count", "lower", 0},
	{"myrinet.packets_dropped", "count", "lower", 0},

	{"vmmc.lcp_busy_frac", "frac", "lower", 0},
	{"vmmc.lcp_main_loops_per_op", "count", "lower", 0},
	{"vmmc.sends_short_per_op", "count", "lower", 0},
	{"vmmc.sends_long_per_op", "count", "lower", 0},
	{"vmmc.tlb_miss_frac", "frac", "lower", 0},
	{"vmmc.tlb_miss_stalls_per_kop", "count", "lower", 0},
	{"vmmc.notifications_per_op", "count", "lower", 0},
	{"vmmc.probe_oneway_virt_us", "virt_us", "lower", 0},
	{"vmmc.send_call_virt_us_p50", "virt_us", "lower", 0},
	{"vmmc.boot_host_s", "s", "lower", 0},
	{"vmmc.import_host_s", "s", "lower", 0},

	{"rpc.probe_null_call_virt_us", "virt_us", "lower", 0},
	{"rpc.self_virt_us", "virt_us", "lower", 0},
	{"rpc.calls_per_op", "count", "lower", 0},
	{"rpc.stale_replies", "count", "lower", 0},

	{"serve.shed_arrive_frac", "frac", "lower", 0},
	{"serve.shed_serve_frac", "frac", "lower", 0},
	{"serve.queue_depth_peak", "count", "lower", 0},
	{"serve.retries_per_op", "count", "lower", 0},
	{"serve.budget_denied_per_kop", "count", "lower", 0},

	{"replica.get_self_virt_us", "virt_us", "lower", 0},
	{"replica.hot_spread", "frac", "lower", 0},
	{"replica.applies_per_put", "count", "higher", 0},
	{"replica.apply_backlog_peak", "count", "lower", 0},
	{"replica.ryw_fallback_frac", "frac", "lower", 0},
	{"replica.ryw_violations", "count", "lower", 0},
	{"replica.virt_latency_p999_us", "virt_us", "lower", 0},
	{"loadgen.late_virt_us_max", "virt_us", "lower", 0},
	{"loadgen.self_virt_us_per_op", "virt_us", "lower", 0},

	{"coll.small_virt_us_p50", "virt_us", "lower", 0},
	{"coll.large_virt_us_p50", "virt_us", "lower", 0},
	{"coll.credit_stalls_per_op", "count", "lower", 0},
	{"coll.payload_msgs_per_op", "count", "lower", 0},
	{"coll.signals_per_op", "count", "lower", 0},
	{"coll.model_err_frac", "frac", "lower", 0},
	{"coll.probe_barrier_virt_us", "virt_us", "lower", 0},

	{"trace.host_overhead_ratio", "ratio", "lower", 0},
	{"trace.events_per_op", "count", "lower", 0},
	{"trace.dropped", "count", "lower", 0},
	{"host.gc_cycles_per_kop", "count", "lower", 0},
	{"host.gc_pause_ms", "ms", "lower", 0},
	{"accuracy.latency_err_frac", "frac", "lower", 0},
	{"accuracy.bandwidth_err_frac", "frac", "lower", 0},
}

// metrics maps a metric name to its value; a name absent from the map is
// not applicable to the workload that ran.
type metrics map[string]float64
