package main

import (
	"fmt"
	"io"
	"math"

	"prism/bench/spans"
)

// endToEnd reduces an untraced run to the end-to-end metrics.
func endToEnd(m *measured) map[string]float64 {
	return map[string]float64{
		"setup_s":          m.setupS,
		"records_per_s":    m.recordsPerS,
		"cpu_ns_per_rec":   m.cpuNsPerRec,
		"latency_p50_us":   float64(quantile(m.latency, 0.50)) / 1e3,
		"io_bytes_per_rec": m.ioBytes,
		"peak_rss_mb":      peakRSSMB(),
	}
}

func printEndToEnd(w io.Writer, workload string, m *measured, values map[string]float64) {
	for _, def := range endToEndCatalogue {
		fmt.Fprintf(w, "%-18s %16.4f %-4s (%s is better, bound %.0f%%)\n",
			def.Name, values[def.Name], def.Unit, def.Better, 100*def.Bound)
	}
	fmt.Fprintf(w, "records_per_s: median of %d samples, quartiles %.0f .. %.0f\n", m.samples, m.q1, m.q3)
	us := func(v []int64, q float64) float64 { return float64(quantile(v, q)) / 1e3 }
	fmt.Fprintf(w, "latency: %d samples, p10 %.1f p50 %.1f p90 %.1f p99 %.1f p99.9 %.1f us\n", len(m.latency),
		us(m.latency, 0.10), us(m.latency, 0.50), us(m.latency, 0.90), us(m.latency, 0.99), us(m.latency, 0.999))
	if len(m.late) > 0 {
		late := us(m.late, 0.99)
		fmt.Fprintf(w, "loadgen lateness: p50 %.1f p90 %.1f us; loadgen.late_p99_us = %.1f over %d samples",
			us(m.late, 0.50), us(m.late, 0.90), late, len(m.late))
		if late > 1000 {
			fmt.Fprintf(w, " — UNRESOLVED: the generator ran more than 1 ms late, latency is the generator's")
		}
		fmt.Fprintln(w)
	}
	share := 0.0
	if m.attempted > 0 {
		share = float64(m.failed) / float64(m.attempted)
	}
	fmt.Fprintf(w, "oracle %s: attempted=%d failed=%d failed_share=%g %s\n", workload, m.attempted, m.failed, share, m.detail)
}

// perLayer assembles the per-layer metrics of one workload from its
// short untraced run (plain), its traced run (m, recorded into tr.rec)
// and the layer probes.
func perLayer(workload string, plain, m *measured, tr runConfig, probes map[string]float64) map[string]float64 {
	v := map[string]float64{}
	for name, x := range probes {
		v[name] = x
	}
	for name, x := range m.layer {
		v[name] = x
	}
	stats := spans.Summarize(tr.rec.Spans(), int(numSpanNames))
	per := func(total int64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n)
	}
	v["lis.flush_wait_ns_per_batch"] = per(stats[spLisFlush].Total, stats[spLisFlush].Count)
	send, recv := stats[spTpSend], stats[spTpRecv]
	if workload == wFedTree {
		send, recv = stats[spUplinkSend], stats[spRelayRecv]
	}
	v["tp.send_ns_per_batch"] = per(send.Total, send.Count)
	if recv.Count > 0 {
		// Two receiving conns; the spans cover warm-up and drain as well
		// as the window, so take the share of their own elapsed time.
		all := tr.rec.Spans()
		elapsed := all[len(all)-1].End - all[0].Start
		v["tp.recv_wait_share"] = 100 * float64(recv.Total) / float64(generators*elapsed)
	}
	v["ism.ingest_to_dispatch_p50_us"] = float64(quantile(m.pipeline, 0.50)) / 1e3
	v["ism.ingest_to_dispatch_p99_us"] = float64(quantile(m.pipeline, 0.99)) / 1e3
	sinkNs := per(stats[spSink].Self+stats[spSpoolWrite].Total, int64(m.attempted))
	v["ism.sink_ns_per_rec"] = sinkNs
	if len(m.late) > 0 {
		v["loadgen.late_p99_us"] = float64(quantile(m.late, 0.99)) / 1e3
	}
	v["latency_p99_us"] = float64(quantile(plain.latency, 0.99)) / 1e3
	v["trace_overhead_pct"] = 100 * (m.cpuNsPerRec/plain.cpuNsPerRec - 1)
	v["spans.recorded"] = float64(len(tr.rec.Spans()))
	v["spans.dropped"] = float64(tr.rec.Dropped())

	l := ledger(workload, plain, m, v)
	v["ledger.attributed_ns_per_rec"] = l.Attributed()
	v["ledger.loadgen_ns_per_rec"] = l.Loadgen
	v["ledger.unattributed_ns_per_rec"] = l.Unattributed()
	v["ledger.end_to_end_ns_per_rec"] = l.EndToEnd
	return v
}

// ledger sums the probes on a workload's path, each weighted by what
// the path does with a record, against the untraced cpu_ns_per_rec.
// The loadgen line is the benchmark's own work at both ends: the
// generator (probe) and the checking sink (its self time in the traced
// run, spool writes excluded).
func ledger(workload string, plain, m *measured, v map[string]float64) spans.Ledger {
	// What the loopback probe costs beyond the codec: syscalls and copies,
	// at 256 records a frame.
	wireIO := math.Max(0, v["tp.loopback_ns_per_rec"]-v["tp.encode_ns_per_rec"]-v["tp.decode_ns_per_rec"])
	sink := v["ism.sink_ns_per_rec"]
	l := spans.Ledger{Workload: workload, EndToEnd: plain.cpuNsPerRec, Loadgen: v["loadgen.ns_per_rec"] + sink}
	switch workload {
	case wFirehose:
		l.Stages = []spans.Stage{
			{Name: "lis.capture (256/flush)", NsPerRec: v["lis.capture_ns_per_rec"]},
			{Name: "tp.encode (256/frame)", NsPerRec: v["tp.encode_ns_per_rec"]},
			{Name: "tp loopback syscalls+copy", NsPerRec: wireIO},
			{Name: "tp.decode (256/frame)", NsPerRec: v["tp.decode_ns_per_rec"]},
			{Name: "ism inject..dispatch (sharded)", NsPerRec: v["ism.inject_ns_per_rec"]},
		}
	case wPaced:
		// The spool's write time sits in the sink reading; split it out
		// as its own stage through the probe instead.
		l.Stages = []spans.Stage{
			{Name: "lis.capture (32/flush)", NsPerRec: v["lis.capture_small_ns_per_rec"]},
			{Name: "tp.encode (32/frame)", NsPerRec: v["tp.encode_small_ns_per_rec"]},
			{Name: "tp loopback syscalls+copy (256 fig.)", NsPerRec: wireIO},
			{Name: "tp.decode (32/frame)", NsPerRec: v["tp.decode_small_ns_per_rec"]},
			{Name: "ism inject..dispatch (32/batch)", NsPerRec: v["ism.inject_small_ns_per_rec"]},
			{Name: "trace spool", NsPerRec: v["trace.spool_ns_per_rec"]},
			{Name: "storage.append (files)", NsPerRec: v["storage.append_file_ns_per_rec"]},
		}
	case wFedTree:
		l.Stages = []spans.Stage{
			{Name: "lis.capture (256/flush)", NsPerRec: v["lis.capture_ns_per_rec"]},
			{Name: "leaf ism inject..dispatch", NsPerRec: v["relay.leaf_ns_per_rec"]},
			{Name: "uplink+session+relay merge (pipe)", NsPerRec: v["relay.merge_ns_per_rec"]},
			{Name: "tp.encode (256 fig.)", NsPerRec: v["tp.encode_ns_per_rec"]},
			{Name: "tp loopback syscalls+copy", NsPerRec: wireIO},
			{Name: "tp.decode (256 fig.)", NsPerRec: v["tp.decode_ns_per_rec"]},
		}
	case wStore:
		// cpu_ns_per_rec is per record appended or scanned; weight each
		// side by its share of those.
		a := m.layer["_append_share"]
		l.Loadgen = a * v["loadgen.ns_per_rec"]
		l.Stages = []spans.Stage{
			{Name: fmt.Sprintf("storage.append (files) x %.3f", a), NsPerRec: a * v["storage.append_file_ns_per_rec"]},
			{Name: fmt.Sprintf("trace.segment_decode x %.3f", 1-a), NsPerRec: (1 - a) * v["trace.segment_decode_ns_per_rec"]},
		}
	}
	return l
}

func printPerLayer(w io.Writer, workload string, plain, m *measured, tr runConfig, v map[string]float64, spanPath string) {
	fmt.Fprintf(w, "untraced base: cpu_ns_per_rec %.2f, records_per_s %.0f; traced (%d s): cpu_ns_per_rec %.2f, records_per_s %.0f\n",
		plain.cpuNsPerRec, plain.recordsPerS, tr.seconds, m.cpuNsPerRec, m.recordsPerS)
	fmt.Fprintf(w, "trace_overhead_pct = %.2f\n", v["trace_overhead_pct"])
	names := tr.rec.Names()
	fmt.Fprintf(w, "spans: %d recorded, %d dropped, written to %s\n", len(tr.rec.Spans()), tr.rec.Dropped(), spanPath)
	fmt.Fprintf(w, "  %-14s %10s %14s %14s\n", "span", "count", "mean ns", "mean self ns")
	for i, st := range spans.Summarize(tr.rec.Spans(), int(numSpanNames)) {
		if st.Count > 0 {
			fmt.Fprintf(w, "  %-14s %10d %14.0f %14.0f\n", names[i], st.Count,
				float64(st.Total)/float64(st.Count), float64(st.Self)/float64(st.Count))
		}
	}
	for _, def := range perLayerCatalogue {
		fmt.Fprintf(w, "%-36s %18.4f %s\n", def.Name, v[def.Name], def.Unit)
	}
	ledger(workload, plain, m, v).Render(w)
	fmt.Fprintf(w, "oracle %s (untraced base + traced): attempted=%d failed=%d %s\n",
		workload, plain.attempted+m.attempted, plain.failed+m.failed, m.detail)
}
