package main

// The metric catalogue. Every name here is also in BENCHMARK.json
// (bench_test.go checks it); end-to-end metrics marked reportOnly are
// printed with the run but not gated, because they are 0 on some
// workload or too few events happen in one run to repeat within a bound.

type metricDef struct {
	name, unit, better string
	reportOnly         bool
	// moves is the prediction for a per-layer metric: the end-to-end
	// metric it should move, and on which workload.
	moves string
}

var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "throughput_ops_s", unit: "ops/s", better: "higher"},
	{name: "p50_ms", unit: "ms", better: "lower"},
	{name: "p99_ms", unit: "ms", better: "lower"},
	{name: "index_bytes_per_tuple", unit: "B", better: "lower"},
	{name: "heap_mb", unit: "MiB", better: "lower"},
	{name: "write_p99_ms", unit: "ms", better: "lower", reportOnly: true},
	{name: "slo_miss_frac", unit: "ratio", better: "lower", reportOnly: true},
	{name: "failed_frac", unit: "ratio", better: "lower", reportOnly: true},
	{name: "refused_frac", unit: "ratio", better: "lower", reportOnly: true},
}

const (
	onOLTP  = "p99_ms, slo_miss_frac on serve-oltp"
	onScanT = "throughput_ops_s, p50_ms on serve-scan"
	onLookT = "throughput_ops_s, p50_ms on lookup"
)

var perLayerMetrics = []metricDef{
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower", moves: "none; a validity check of the open-loop generator"},
	{name: "loadgen.conn_wait_p99_ms", unit: "ms", better: "lower", moves: onOLTP},
	{name: "http.rtt_self_us", unit: "us", better: "lower", moves: onOLTP},

	{name: "server.handle_us", unit: "us", better: "lower", moves: onScanT},
	{name: "server.self_us", unit: "us", better: "lower", moves: onScanT + "; under 3% of latency on serve-oltp"},
	{name: "server.resp_bytes_per_op", unit: "B", better: "lower", moves: onScanT},
	{name: "server.requests_per_op", unit: "count", better: "lower", moves: onScanT},
	{name: "server.rejected", unit: "count", better: "lower", moves: "refused_frac on serve-oltp"},
	{name: "server.errors", unit: "count", better: "lower", moves: "failed_frac"},

	{name: "index.search_us", unit: "us", better: "lower", moves: onLookT},
	{name: "index.multi_us", unit: "us", better: "lower", moves: "p50_ms on serve-oltp"},
	{name: "index.range_us", unit: "us", better: "lower", moves: onScanT},
	{name: "index.scanlimit_us", unit: "us", better: "lower", moves: onScanT},
	{name: "index.insert_us", unit: "us", better: "lower", moves: "write_p99_ms on serve-oltp"},
	{name: "index.delete_us", unit: "us", better: "lower", moves: "write_p99_ms on serve-oltp"},
	{name: "index.write_p99_us", unit: "us", better: "lower", moves: "write_p99_ms on serve-oltp"},
	{name: "core.index_reads_per_key", unit: "count", better: "lower", moves: onLookT + "; p50_ms on serve-oltp at one device sleep per page"},
	{name: "bloom.probes_per_key", unit: "count", better: "lower", moves: onLookT},
	{name: "core.candidate_pages_per_key", unit: "count", better: "lower", moves: onLookT},
	{name: "core.data_pages_per_key", unit: "count", better: "lower", moves: onLookT + "; p50_ms on serve-oltp at one device sleep per page"},
	{name: "core.false_reads_per_key", unit: "count", better: "lower", moves: onLookT + "; p50_ms on serve-oltp at one device sleep per page"},
	{name: "core.useful_read_ratio", unit: "ratio", better: "higher", moves: onLookT},

	{name: "maint.passes", unit: "count", better: "lower", moves: onOLTP},
	{name: "maint.incremental_passes", unit: "count", better: "lower", moves: onOLTP},
	{name: "maint.leaves_compacted", unit: "count", better: "lower", moves: onOLTP},
	{name: "maint.full_rebuilds", unit: "count", better: "lower", moves: onOLTP},
	{name: "maint.max_hold_ms", unit: "ms", better: "lower", moves: "p99_ms, write_p99_ms, slo_miss_frac, refused_frac on serve-oltp"},
	{name: "maint.hold_frac", unit: "ratio", better: "lower", moves: "p99_ms, write_p99_ms, slo_miss_frac on serve-oltp"},
	{name: "maint.lock_misses", unit: "count", better: "lower", moves: onOLTP},
	{name: "maint.forced_locks", unit: "count", better: "lower", moves: onOLTP},
	{name: "maint.pages_reclaimed", unit: "count", better: "higher", moves: "index_bytes_per_tuple on serve-oltp"},
	{name: "maint.limbo_pages_end", unit: "count", better: "lower", moves: "index_bytes_per_tuple, heap_mb on serve-oltp"},
	{name: "maint.fpp_max", unit: "ratio", better: "lower", moves: "refused_frac on serve-oltp"},
	{name: "maint.data_reads", unit: "count", better: "lower", moves: onOLTP},

	{name: "pagestore.fresh_pages", unit: "count", better: "lower", moves: "index_bytes_per_tuple, heap_mb on serve-oltp"},
	{name: "pagestore.reused_pages", unit: "count", better: "higher", moves: "index_bytes_per_tuple, heap_mb on serve-oltp"},

	{name: "device.index_reads_per_op", unit: "count", better: "lower", moves: "p50_ms on serve-oltp"},
	{name: "device.data_reads_per_op", unit: "count", better: "lower", moves: "p50_ms on serve-oltp"},
	{name: "device.index_writes_per_op", unit: "count", better: "lower", moves: "write_p99_ms on serve-oltp"},
	{name: "device.index_bytes_written_per_write", unit: "B", better: "lower", moves: "write_p99_ms on serve-oltp"},
	{name: "device.sleep_us", unit: "us", better: "lower", moves: "p50_ms on serve-oltp"},
	{name: "device.wait_share", unit: "ratio", better: "lower", moves: "p50_ms on serve-oltp"},

	{name: "runtime.alloc_kb_per_op", unit: "KiB", better: "lower", moves: onLookT + "; " + onScanT},
	{name: "runtime.gc_cycles", unit: "count", better: "lower", moves: onLookT + "; " + onScanT},

	{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "none; bounds how far the per-layer numbers can be trusted"},
}

// measured is one reported value with its sample count; note says how
// it was taken when that is not the metric's plain definition.
type measured struct {
	value float64
	n     int
	note  string
}
