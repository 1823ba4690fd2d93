package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"prism/bench/gen"
	"prism/bench/oracle"
	"prism/bench/spans"
	"prism/internal/isruntime/metrics"
)

// Workload names are stable identifiers: BENCHMARK.json, the README and
// every later performance PR refer to them.
const (
	wFirehose = "flat_firehose"
	wPaced    = "flat_paced"
	wFedTree  = "fed_tree"
	wStore    = "store_scan"
)

var workloadNames = []string{wFirehose, wPaced, wFedTree, wStore}

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed    uint64
	seconds int
	block   int             // records per generated block
	setups  int             // how many times set-up is repeated for setup_s
	dir     string          // scratch directory for the run's files
	rec     *spans.Recorder // nil in the untraced run
	log     io.Writer       // human-readable report
}

// measured is what one run of any workload, traced or not, reduces to.
type measured struct {
	setupS      float64
	recordsPerS float64
	q1, q3      float64 // quartiles of the per-slice (or per-scan) rates
	samples     int     // slices or scans behind recordsPerS
	cpuNsPerRec float64
	latency     []int64 // ns, sorted
	ioBytes     float64
	attempted   uint64
	failed      uint64
	backlog     uint64 // the part of failed that is the open loop's undelivered backlog
	detail      string

	late     []int64            // paced generators' lateness, ns, sorted
	pipeline []int64            // traced run: manager-side Recv return -> sink, ns, sorted
	layer    map[string]float64 // per-layer readings taken from this run
	stream   *gen.Stream
}

// setUp builds and warms a deployment rc.setups times, keeping the last,
// and returns the median set-up time. Each discarded deployment is
// collected before the next is built, so neither the timings nor the
// process's peak memory depend on when the collector would have got to
// the benchmark's own garbage.
func setUp[D any](rc runConfig, build func() (D, error), warm func(D) error, discard func(D)) (D, float64, error) {
	var d D
	times := make([]float64, 0, rc.setups)
	for i := 0; i < rc.setups; i++ {
		if i > 0 {
			discard(d)
			var zero D
			d = zero
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, err = build(); err != nil {
			return d, 0, err
		}
		if err = warm(d); err != nil {
			discard(d)
			return d, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return d, median(times), nil
}

func runFlat(cfg flatConfig, rc runConfig) (*measured, error) {
	f, setupS, err := setUp(rc,
		func() (*flat, error) { return buildFlat(cfg, rc) },
		(*flat).warmup,
		func(f *flat) { _ = f.close(); f.remove() })
	if err != nil {
		return nil, err
	}
	defer f.remove()
	sampler := startGaugeSampler(rc, f.ismReg)
	run, runErr := f.run(rc.seconds)
	gauges := sampler.stop()
	sum, per := f.emitted()
	rep := f.snk.Finish(sum, per)
	closeErr := f.close()
	if runErr != nil {
		return nil, fmt.Errorf("%w (%s)", runErr, rep)
	}
	if closeErr != nil {
		return nil, closeErr
	}
	m := &measured{
		setupS: setupS, attempted: sum.Count, failed: rep.Failed(), detail: rep.String(),
		ioBytes: float64(f.wireBytes) / float64(f.wireRecs), stream: f.stream,
		layer: map[string]float64{},
	}
	m.fromWired(run, f.snk)
	tx := f.txReg.Snapshot()
	m.layer["wire_bytes_per_rec"] = m.ioBytes
	m.layer["tp.bytes_tx"] = tx.Value("tp.bytes_tx")
	m.layer["tp.msgs_sent"] = tx.Value("tp.msgs_sent")
	if cfg.paced {
		m.backlog = oracle.Backlog(run.offered, run.reached)
		m.failed += m.backlog
		for _, g := range f.gens {
			m.late = append(m.late, g.late...)
		}
		sortInt64(m.late)
		// The whole run's wire bytes repeat exactly for a seed, as the
		// first cycle's do: each node's 32-record frames are the same
		// whatever the schedule. The spool and tier bytes do not: the
		// MISO manager's dispatch order, and so what sits next to what in
		// a segment, follows the schedule.
		tier := f.tierReg.Snapshot()
		m.layer["wire_bytes_per_rec"] = tx.Value("tp.bytes_tx") / tx.Value("tp.recs_tx")
		m.layer["disk_bytes_per_rec"] = tier.Value("storage.tier.bytes_disk") / float64(sum.Count)
		m.layer["storage.sealed"] = tier.Value("storage.tier.sealed")
		m.layer["storage.compactions"] = tier.Value("storage.tier.compactions")
		m.layer["storage.compact_errors"] = tier.Value("storage.tier.compact_errors")
		if f.snk.archiveErr != nil {
			return nil, f.snk.archiveErr
		}
		m.failed += absDiff(uint64(tier.Value("storage.tier.appended")), sum.Count)
		m.failed += uint64(tier.Value("storage.tier.compact_errors"))
	}
	ismSnap := f.ismReg.Snapshot()
	m.layer["ism.merge_stalls"] = ismSnap.Value("ism.merge.stalls")
	m.layer["ism.merge_stall_ns_per_rec"] = ismSnap.Value("ism.merge.stall_ns") / float64(sum.Count)
	m.layer["ism.out_of_order"] = ismSnap.Value("ism.out_of_order")
	m.layer["ism.max_held"] = ismSnap.Value("ism.max_held")
	m.layer["ism.ring_occupancy_max"] = gauges["ring_occupancy"]
	m.layer["ism.frontier_lag_max"] = gauges["frontier_lag"]
	m.failed += uint64(lisDropped(f.lisReg))
	m.detail += fmt.Sprintf(" ism: out_of_order=%.0f max_held=%.0f merge_stalls=%.0f",
		m.layer["ism.out_of_order"], m.layer["ism.max_held"], m.layer["ism.merge_stalls"])
	return m, nil
}

func runFed(rc runConfig) (*measured, error) {
	f, setupS, err := setUp(rc,
		func() (*fed, error) { return buildFed(rc) },
		(*fed).warmup,
		func(f *fed) { _ = f.close() })
	if err != nil {
		return nil, err
	}
	sampler := startGaugeSampler(rc, f.relayReg)
	run, runErr := f.run(rc.seconds)
	gauges := sampler.stop()
	sum, per := f.emitted()
	rep := f.snk.Finish(sum, per)
	closeErr := f.close()
	if runErr != nil {
		return nil, fmt.Errorf("%w (%s)", runErr, rep)
	}
	if closeErr != nil {
		return nil, closeErr
	}
	m := &measured{
		setupS: setupS, attempted: sum.Count, failed: rep.Failed(), detail: rep.String(),
		ioBytes: float64(f.wireBytes) / float64(f.wireRecs), stream: f.stream,
		layer: map[string]float64{},
	}
	m.fromWired(run, f.snk)
	tx := f.txReg.Snapshot()
	rl := f.relayReg.Snapshot()
	up := f.upReg.Snapshot()
	m.layer["wire_bytes_per_rec"] = m.ioBytes
	m.layer["tp.bytes_tx"] = tx.Value("tp.bytes_tx")
	m.layer["tp.msgs_sent"] = tx.Value("tp.msgs_sent")
	m.layer["relay.stalls"] = rl.Value("ism.relay.stalls")
	m.layer["relay.order_breaks"] = rl.Value("ism.relay.order_breaks")
	m.layer["relay.acks_gated"] = rl.Value("ism.relay.acks_gated")
	m.layer["relay.held_max"] = gauges["held"]
	m.layer["relay.lag_ticks_max"] = gauges["lag_ticks"]
	m.layer["fault.acks_sent"] = rl.Value("session.acks_sent")
	m.layer["fault.dup_batches"] = rl.Value("session.dup_batches")
	var replayed, demoted float64
	for _, metric := range up {
		switch {
		case strings.HasSuffix(metric.Name, ".batches_replayed"):
			replayed += metric.Value
		case strings.HasSuffix(metric.Name, ".batches_spilled"), strings.HasSuffix(metric.Name, ".batches_lost"):
			demoted += metric.Value
		}
	}
	m.layer["fault.batches_replayed"] = replayed
	// None of these may happen on a fault-free run: a forced dispatch, a
	// replay, a duplicate, a source claimed by two lanes, or a batch
	// pushed out of the replay window before its ack.
	m.failed += uint64(rl.Value("ism.relay.order_breaks") + rl.Value("session.dup_batches") +
		rl.Value("ism.relay.dup_records") + rl.Value("ism.relay.partition_rejects") +
		rl.Value("ism.relay.unsequenced_drops") + replayed + demoted)
	m.failed += uint64(lisDropped(f.lisReg))
	return m, nil
}

// fromWired folds a wired run's window into the shared measurements.
func (m *measured) fromWired(run wiredRun, snk *sink) {
	m.recordsPerS = median(run.slices)
	m.q1, m.q3 = quartiles(run.slices)
	m.samples = len(run.slices)
	m.cpuNsPerRec = float64(run.win.cpu) / float64(run.delivered)
	sortInt64(snk.latency)
	m.latency = snk.latency
	sortInt64(snk.pipeline)
	m.pipeline = snk.pipeline
}

// lisDropped sums the records every LIS counted as dropped or spilled.
func lisDropped(reg *metrics.Registry) float64 {
	var n float64
	for _, metric := range reg.Snapshot() {
		if strings.HasSuffix(metric.Name, ".dropped") || strings.HasSuffix(metric.Name, ".spilled") {
			n += metric.Value
		}
	}
	return n
}

func runStore(rc runConfig) (*measured, error) {
	s, setupS, err := setUp(rc,
		func() (*store, error) { return buildStore(rc) },
		(*store).warmup,
		func(s *store) { _ = s.close() })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(s.dir)
	run, err := s.run()
	if err != nil {
		_ = s.close()
		return nil, err
	}
	m := &measured{
		setupS: setupS, stream: s.stream, layer: map[string]float64{},
		attempted: s.appended.Load() + run.scanned, failed: run.failed, backlog: run.backlog,
		recordsPerS: median(run.scanRates), samples: len(run.scanRates),
		cpuNsPerRec: float64(run.cpu) / float64(s.appended.Load()+run.scanned),
		latency:     run.mixedLat,
		ioBytes:     float64(run.diskBytes) / float64(s.records),
		late:        run.mixedLate,
	}
	m.q1, m.q3 = quartiles(run.scanRates)
	m.detail = fmt.Sprintf("appended=%d scanned=%d scans=%d mixed-offered=%d mixed-appended=%d",
		s.appended.Load(), run.scanned, len(run.scanRates), run.mixedOffered, run.mixedDone)
	m.layer["_append_share"] = float64(s.appended.Load()) / float64(s.appended.Load()+run.scanned)
	m.layer["disk_bytes_per_rec"] = m.ioBytes
	m.layer["append_records_per_s"] = float64(s.records) / run.appendWall.Seconds()
	m.layer["scan_records_per_s"] = m.recordsPerS
	m.layer["mixed_scan_records_per_s"] = float64(run.mixedScanned) / run.mixedWall.Seconds()
	m.layer["storage.append_p99_us"] = float64(quantile(run.appendLat, 0.99)) / 1e3
	m.layer["storage.append_p99_us_under_scan"] = float64(quantile(run.mixedCall, 0.99)) / 1e3
	if rc.rec != nil {
		ls, err := s.layerScans()
		if err != nil {
			_ = s.close()
			return nil, err
		}
		m.layer["storage.scan_serial_records_per_s"] = ls.serial
		m.layer["storage.scan_range_records_per_s"] = ls.ranged
		m.layer["storage.scan_source_records_per_s"] = ls.source
	}
	if err := s.tier.Flush(); err != nil {
		_ = s.close()
		return nil, err
	}
	waitCompacted(s.tier)
	snap := s.reg.Snapshot()
	m.layer["storage.sealed"] = snap.Value("storage.tier.sealed")
	m.layer["storage.compactions"] = snap.Value("storage.tier.compactions")
	m.layer["storage.compact_errors"] = snap.Value("storage.tier.compact_errors")
	m.failed += uint64(snap.Value("storage.tier.compact_errors"))
	return m, s.close()
}

// runWorkload runs one workload once under rc.
func runWorkload(name string, rc runConfig) (*measured, error) {
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		return nil, err
	}
	switch name {
	case wFirehose:
		return runFlat(firehoseConfig, rc)
	case wPaced:
		return runFlat(pacedConfig, rc)
	case wFedTree:
		return runFed(rc)
	case wStore:
		return runStore(rc)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// gaugeSampler polls the runtime's occupancy gauges during a traced
// run and keeps each family's maximum: the registry only holds their
// current value.
type gaugeSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	max    map[string]float64
}

func startGaugeSampler(rc runConfig, reg *metrics.Registry) *gaugeSampler {
	g := &gaugeSampler{stopCh: make(chan struct{}), max: map[string]float64{}}
	if rc.rec == nil {
		return g
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stopCh:
				return
			case <-tick.C:
			}
			for _, metric := range reg.Snapshot() {
				if metric.Kind != metrics.KindGauge {
					continue
				}
				family := metric.Name[strings.LastIndexByte(metric.Name, '.')+1:]
				if metric.Value > g.max[family] {
					g.max[family] = metric.Value
				}
			}
		}
	}()
	return g
}

func (g *gaugeSampler) stop() map[string]float64 {
	close(g.stopCh)
	g.wg.Wait()
	return g.max
}

// writeSpans dumps the traced run's spans under dir.
func writeSpans(rec *spans.Recorder, dir, workload string, seed uint64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if _, err := rec.WriteTo(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
