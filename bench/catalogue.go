package main

// metricDef is one entry of the metric catalogue. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds;
// TestCatalogueMatchesContract keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Exact marks an end-to-end count that is a function of the seed
	// alone: two runs of one commit on one seed must agree on it exactly.
	Exact bool
	// Moves says, for a per-layer metric, which end-to-end metric it
	// should move and on which workload.
	Moves string
}

// endToEndCatalogue is what a user of the runtime would see, each
// defined on all four workloads (README.md says how). The bounds are
// calibrated: README.md has the spreads behind them. The shared
// sandbox's own speed drifts by a tenth and more over minutes (two
// series of ten runs an hour apart differed by up to 17 % in their
// medians), which is what puts the timing metrics at the contract's
// largest bound.
var endToEndCatalogue = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "records_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ns_per_rec", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "io_bytes_per_rec", Unit: "B", Better: "lower", Bound: 0.02, Exact: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// perLayerCatalogue lists the single-layer metrics, grouped by the
// package they measure. Probe readings are the same on every workload;
// traced and registry readings are zero on a workload whose path does
// not run the layer, which is the evidence for each workload's "does
// none of the work" claim.
var perLayerCatalogue = []metricDef{
	// End-to-end readings that exist on some workloads only, so cannot
	// carry a bound under the contract; they keep the issue's names.
	{Name: "wire_bytes_per_rec", Unit: "B", Better: "lower", Moves: "is io_bytes_per_rec on flat_firehose, fed_tree; the whole run's where io_bytes_per_rec is the first cycle's on flat_paced"},
	{Name: "disk_bytes_per_rec", Unit: "B", Better: "lower", Moves: "is io_bytes_per_rec on store_scan; on flat_paced it follows the dispatch order, so repeats to 0.01 % only"},
	{Name: "append_records_per_s", Unit: "1/s", Better: "higher", Moves: "cpu_ns_per_rec on store_scan (phase A); drifts by a third with the file system's state, so carries no bound"},
	{Name: "scan_records_per_s", Unit: "1/s", Better: "higher", Moves: "is records_per_s on store_scan (phase B)"},
	{Name: "mixed_scan_records_per_s", Unit: "1/s", Better: "higher", Moves: "cpu_ns_per_rec, latency_* on store_scan (phase C)"},
	{Name: "latency_p99_us", Unit: "us", Better: "lower", Moves: "the tail of latency_p50_us, this workload: does not repeat within its bound on the sandbox"},

	{Name: "event.emit_ns_per_rec", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_rec on flat_paced"},

	{Name: "lis.capture_ns_per_rec", Unit: "ns", Better: "lower", Moves: "records_per_s, cpu_ns_per_rec on flat_firehose"},
	{Name: "lis.capture_small_ns_per_rec", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_rec on flat_paced"},
	{Name: "lis.allocs_per_rec", Unit: "count", Better: "lower", Moves: "cpu_ns_per_rec, peak_rss_mb on flat_firehose"},
	{Name: "lis.flush_wait_ns_per_batch", Unit: "ns", Better: "lower", Moves: "records_per_s on flat_firehose; latency_p99_us on flat_paced"},
	{Name: "lis.intrusion_ns_per_event", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_rec on flat_paced"},

	{Name: "flow.queue_ns_per_batch", Unit: "ns", Better: "lower", Moves: "records_per_s on flat_firehose, fed_tree"},
	{Name: "flow.spsc_ns_per_batch", Unit: "ns", Better: "lower", Moves: "records_per_s on flat_firehose, fed_tree"},
	{Name: "flow.pool_ns_per_batch", Unit: "ns", Better: "lower", Moves: "records_per_s on flat_firehose, fed_tree"},

	{Name: "tp.encode_ns_per_rec", Unit: "ns", Better: "lower", Moves: "records_per_s, cpu_ns_per_rec on flat_firehose, fed_tree"},
	{Name: "tp.encode_small_ns_per_rec", Unit: "ns", Better: "lower", Moves: "latency_p50_us, cpu_ns_per_rec on flat_paced"},
	{Name: "tp.decode_ns_per_rec", Unit: "ns", Better: "lower", Moves: "records_per_s, cpu_ns_per_rec on flat_firehose, fed_tree"},
	{Name: "tp.decode_small_ns_per_rec", Unit: "ns", Better: "lower", Moves: "latency_p50_us, cpu_ns_per_rec on flat_paced"},
	{Name: "tp.flat_roundtrip_ns_per_rec", Unit: "ns", Better: "lower", Moves: "none: the negotiated-fallback codec"},
	{Name: "tp.loopback_ns_per_rec", Unit: "ns", Better: "lower", Moves: "records_per_s, cpu_ns_per_rec on flat_firehose, fed_tree"},
	{Name: "tp.allocs_per_batch", Unit: "count", Better: "lower", Moves: "cpu_ns_per_rec on flat_firehose"},
	{Name: "tp.send_ns_per_batch", Unit: "ns", Better: "lower", Moves: "records_per_s on flat_firehose, fed_tree"},
	{Name: "tp.recv_wait_share", Unit: "%", Better: "lower", Moves: "names the bottleneck: high = receiver starved by upstream"},
	{Name: "tp.bytes_tx", Unit: "B", Better: "lower", Moves: "wire_bytes_per_rec wherever wired"},
	{Name: "tp.msgs_sent", Unit: "count", Better: "lower", Moves: "wire_bytes_per_rec wherever wired"},

	{Name: "trace.colenc_ns_per_rec", Unit: "ns", Better: "lower", Moves: "append_records_per_s on store_scan"},
	{Name: "trace.coldec_ns_per_rec", Unit: "ns", Better: "lower", Moves: "records_per_s on store_scan"},
	{Name: "trace.segment_encode_ns_per_rec", Unit: "ns", Better: "lower", Moves: "append_records_per_s on store_scan"},
	{Name: "trace.segment_decode_ns_per_rec", Unit: "ns", Better: "lower", Moves: "records_per_s on store_scan"},
	{Name: "trace.sequencer_ns_per_rec", Unit: "ns", Better: "lower", Moves: "records_per_s on flat_firehose"},
	{Name: "trace.causal_ns_per_rec", Unit: "ns", Better: "lower", Moves: "records_per_s on flat_firehose"},
	{Name: "trace.spool_ns_per_rec", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_rec on flat_paced"},

	{Name: "ism.inject_ns_per_rec", Unit: "ns", Better: "lower", Moves: "records_per_s, cpu_ns_per_rec on flat_firehose"},
	{Name: "ism.inject_1shard_ns_per_rec", Unit: "ns", Better: "lower", Moves: "baseline for ism.inject_ns_per_rec"},
	{Name: "ism.inject_small_ns_per_rec", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_rec on flat_paced"},
	{Name: "ism.allocs_per_rec", Unit: "count", Better: "lower", Moves: "cpu_ns_per_rec on flat_firehose"},
	{Name: "ism.ingest_to_dispatch_p50_us", Unit: "us", Better: "lower", Moves: "latency_p50_us on flat_paced"},
	{Name: "ism.ingest_to_dispatch_p99_us", Unit: "us", Better: "lower", Moves: "latency_p99_us on flat_paced"},
	{Name: "ism.merge_stalls", Unit: "count", Better: "lower", Moves: "records_per_s on flat_firehose"},
	{Name: "ism.merge_stall_ns_per_rec", Unit: "ns", Better: "lower", Moves: "records_per_s on flat_firehose"},
	{Name: "ism.out_of_order", Unit: "count", Better: "lower", Moves: "latency_p99_us on flat_paced"},
	{Name: "ism.max_held", Unit: "count", Better: "lower", Moves: "peak_rss_mb on flat_firehose"},
	{Name: "ism.ring_occupancy_max", Unit: "count", Better: "lower", Moves: "names the bottleneck: full = merger is the choke"},
	{Name: "ism.frontier_lag_max", Unit: "count", Better: "lower", Moves: "records_per_s on flat_firehose"},
	{Name: "ism.sink_ns_per_rec", Unit: "ns", Better: "lower", Moves: "the benchmark's own sink and the spool, to subtract"},

	{Name: "fault.session_ns_per_batch", Unit: "ns", Better: "lower", Moves: "records_per_s on fed_tree"},
	{Name: "fault.acks_sent", Unit: "count", Better: "lower", Moves: "records_per_s on fed_tree"},
	{Name: "fault.batches_replayed", Unit: "count", Better: "lower", Moves: "must be 0"},
	{Name: "fault.dup_batches", Unit: "count", Better: "lower", Moves: "must be 0"},

	{Name: "relay.uplink_push_ns_per_rec", Unit: "ns", Better: "lower", Moves: "records_per_s, cpu_ns_per_rec on fed_tree"},
	{Name: "relay.merge_ns_per_rec", Unit: "ns", Better: "lower", Moves: "records_per_s, cpu_ns_per_rec on fed_tree"},
	{Name: "relay.leaf_ns_per_rec", Unit: "ns", Better: "lower", Moves: "records_per_s, cpu_ns_per_rec on fed_tree"},
	{Name: "relay.stalls", Unit: "count", Better: "lower", Moves: "records_per_s on fed_tree"},
	{Name: "relay.order_breaks", Unit: "count", Better: "lower", Moves: "must be 0"},
	{Name: "relay.held_max", Unit: "count", Better: "lower", Moves: "peak_rss_mb on fed_tree"},
	{Name: "relay.acks_gated", Unit: "count", Better: "lower", Moves: "records_per_s on fed_tree"},
	{Name: "relay.lag_ticks_max", Unit: "ns", Better: "lower", Moves: "latency_p99_us on fed_tree"},

	{Name: "storage.append_ns_per_rec", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_rec on store_scan"},
	{Name: "storage.append_file_ns_per_rec", Unit: "ns", Better: "lower", Moves: "append_records_per_s on store_scan; cpu_ns_per_rec on flat_paced"},
	{Name: "storage.append_p99_us", Unit: "us", Better: "lower", Moves: "append_records_per_s on store_scan"},
	{Name: "storage.append_p99_us_under_scan", Unit: "us", Better: "lower", Moves: "latency_p99_us on store_scan"},
	{Name: "storage.scan_serial_records_per_s", Unit: "1/s", Better: "higher", Moves: "baseline for scan_records_per_s"},
	{Name: "storage.scan_range_records_per_s", Unit: "1/s", Better: "higher", Moves: "none: push-down path"},
	{Name: "storage.scan_source_records_per_s", Unit: "1/s", Better: "higher", Moves: "none: push-down path"},
	{Name: "storage.sealed", Unit: "count", Better: "lower", Moves: "disk_bytes_per_rec on store_scan, flat_paced"},
	{Name: "storage.compactions", Unit: "count", Better: "lower", Moves: "disk_bytes_per_rec on store_scan, flat_paced"},
	{Name: "storage.compact_errors", Unit: "count", Better: "lower", Moves: "must be 0"},

	{Name: "metrics.counter_inc_ns", Unit: "ns", Better: "lower", Moves: "records_per_s on flat_firehose (the observability budget)"},
	{Name: "metrics.histogram_observe_ns", Unit: "ns", Better: "lower", Moves: "records_per_s on flat_firehose (the observability budget)"},
	{Name: "metrics.snapshot_us", Unit: "us", Better: "lower", Moves: "none on the hot path"},

	{Name: "loadgen.ns_per_rec", Unit: "ns", Better: "lower", Moves: "the generator's share of cpu_ns_per_rec, every wired workload"},
	{Name: "loadgen.late_p99_us", Unit: "us", Better: "lower", Moves: "latency_* on flat_paced, store_scan; above 1000 the run is unresolved"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower", Moves: "traced against untraced cpu_ns_per_rec, this workload"},
	{Name: "spans.recorded", Unit: "count", Better: "higher", Moves: "none"},
	{Name: "spans.dropped", Unit: "count", Better: "lower", Moves: "none: spans beyond the pre-sized buffer"},

	{Name: "ledger.attributed_ns_per_rec", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_rec, this workload: sum of the probes on its path"},
	{Name: "ledger.loadgen_ns_per_rec", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_rec, this workload: the generator's share"},
	{Name: "ledger.unattributed_ns_per_rec", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_rec, this workload: what the probes do not explain"},
	{Name: "ledger.end_to_end_ns_per_rec", Unit: "ns", Better: "lower", Moves: "the untraced cpu_ns_per_rec the three lines above sum to"},
}
