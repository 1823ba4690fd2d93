// Top-level benchmark harness: one benchmark per paper table/figure
// (regenerating the artifact at reduced fidelity), plus
// microbenchmarks of the synthesized IS runtime's hot paths. Run with:
//
//	go test -bench=. -benchmem
package prism

import (
	"bytes"
	"io"
	"testing"

	"prism/internal/analyze"
	"prism/internal/cluster"
	"prism/internal/experiments"
	"prism/internal/isruntime/event"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/lis"
	"prism/internal/isruntime/tp"
	"prism/internal/paradyn"
	"prism/internal/picl"
	"prism/internal/queueing"
	rngpkg "prism/internal/rng"
	"prism/internal/rocc"
	"prism/internal/trace"
	"prism/internal/vista"
	"prism/internal/workload"
)

// benchArtifactAt regenerates one experiment artifact per iteration at
// the given replication parallelism (0 = all cores, 1 = serial). The
// Serial/Parallel benchmark pairs below quantify the replication
// engine's speedup; artifacts are byte-identical at every setting.
func benchArtifactAt(b *testing.B, id string, parallelism int) {
	b.Helper()
	suite := experiments.Suite(experiments.Options{Quick: true, Parallelism: parallelism})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suite.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// benchArtifact regenerates one experiment artifact per iteration at
// the default (all-core) parallelism.
func benchArtifact(b *testing.B, id string) { benchArtifactAt(b, id, 0) }

func BenchmarkTable1(b *testing.B)       { benchArtifact(b, "table1") }
func BenchmarkTable2(b *testing.B)       { benchArtifact(b, "table2") }
func BenchmarkTable3(b *testing.B)       { benchArtifact(b, "table3") }
func BenchmarkFig5a(b *testing.B)        { benchArtifact(b, "fig5a") }
func BenchmarkFig5b(b *testing.B)        { benchArtifact(b, "fig5b") }
func BenchmarkFig5c(b *testing.B)        { benchArtifact(b, "fig5c") }
func BenchmarkTable4(b *testing.B)       { benchArtifact(b, "table4") }
func BenchmarkTable5(b *testing.B)       { benchArtifact(b, "table5") }
func BenchmarkFig9Left(b *testing.B)     { benchArtifact(b, "fig9left") }
func BenchmarkFig9Right(b *testing.B)    { benchArtifact(b, "fig9right") }
func BenchmarkTable6(b *testing.B)       { benchArtifact(b, "table6") }
func BenchmarkTable7(b *testing.B)       { benchArtifact(b, "table7") }
func BenchmarkFig11Latency(b *testing.B) { benchArtifact(b, "fig11latency") }
func BenchmarkFig11Buffer(b *testing.B)  { benchArtifact(b, "fig11buffer") }
func BenchmarkTable8(b *testing.B)       { benchArtifact(b, "table8") }

func BenchmarkValidationPICL(b *testing.B)    { benchArtifact(b, "valid-picl") }
func BenchmarkValidationVista(b *testing.B)   { benchArtifact(b, "valid-vista") }
func BenchmarkFactorialParadyn(b *testing.B)  { benchArtifact(b, "factorial-paradyn") }
func BenchmarkFactorialVista(b *testing.B)    { benchArtifact(b, "factorial-vista") }
func BenchmarkAdaptiveCostModel(b *testing.B) { benchArtifact(b, "adaptive-paradyn") }
func BenchmarkAblationQuantum(b *testing.B)   { benchArtifact(b, "abl-quantum") }
func BenchmarkAblationDisorder(b *testing.B)  { benchArtifact(b, "abl-disorder") }
func BenchmarkAblationFlushCost(b *testing.B) { benchArtifact(b, "abl-flushcost") }

// Serial counterparts of the most replication-bound artifacts: the
// ratio Serial/parallel is the replication engine's speedup on this
// machine (1.0 expected when GOMAXPROCS=1).
func BenchmarkFactorialVistaSerial(b *testing.B)   { benchArtifactAt(b, "factorial-vista", 1) }
func BenchmarkFactorialParadynSerial(b *testing.B) { benchArtifactAt(b, "factorial-paradyn", 1) }
func BenchmarkFig11LatencySerial(b *testing.B)     { benchArtifactAt(b, "fig11latency", 1) }
func BenchmarkValidationVistaSerial(b *testing.B)  { benchArtifactAt(b, "valid-vista", 1) }

// --- model kernels -------------------------------------------------

func BenchmarkPICLSimulateFOF(b *testing.B) {
	p := picl.Params{L: 50, Alpha: 0.1, P: 16, Cost: picl.DefaultFlushCost()}
	for i := 0; i < b.N; i++ {
		if _, err := picl.SimulateFOF(p, 100_000, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPICLSimulateFAOF(b *testing.B) {
	p := picl.Params{L: 50, Alpha: 0.1, P: 16, Cost: picl.DefaultFlushCost()}
	for i := 0; i < b.N; i++ {
		if _, err := picl.SimulateFAOF(p, 50_000, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkROCCRun(b *testing.B) {
	cfg := rocc.DefaultConfig()
	cfg.Horizon = 10_000
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		if _, err := rocc.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVistaRun(b *testing.B) {
	cfg := vista.DefaultConfig()
	cfg.Horizon = 50_000
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		if _, err := vista.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinErlangMean(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = queueing.MinErlangMean(16, 50, 0.007)
	}
	_ = sink
}

// --- runtime hot paths ---------------------------------------------

type nullConn struct{}

func (nullConn) Send(tp.Message) error     { return nil }
func (nullConn) Recv() (tp.Message, error) { select {} }
func (nullConn) Close() error              { return nil }

func BenchmarkSensorEmit(b *testing.B) {
	var clock event.VirtualClock
	sink := event.SinkFunc(func(trace.Record) {})
	s := event.NewSensor(0, 0, &clock, sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.User(1, 0)
	}
}

func BenchmarkBufferedCapture(b *testing.B) {
	l, err := lis.NewBuffered(0, 1024, nullConn{})
	if err != nil {
		b.Fatal(err)
	}
	r := trace.Record{Kind: trace.KindUser}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Capture(r)
	}
}

func BenchmarkForwardingCapture(b *testing.B) {
	l, err := lis.NewForwarding(0, nullConn{})
	if err != nil {
		b.Fatal(err)
	}
	r := trace.Record{Kind: trace.KindUser}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Capture(r)
	}
}

func BenchmarkISMPipeline(b *testing.B) {
	var clock event.VirtualClock
	m := ism.New(ism.Config{Buffering: ism.SISO, Ordered: true}, &clock)
	defer m.Close()
	m.SubscribeBatch("null", func([]trace.Record) {})
	batch := make([]trace.Record, 64)
	for i := range batch {
		batch[i] = trace.Record{Node: 0, Kind: trace.KindUser, Logical: uint64(i)}
	}
	b.ResetTimer()
	seq := uint64(0)
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j].Logical = seq
			seq++
		}
		m.Inject(tp.DataMessage(0, batch))
		// Bound the in-flight backlog so the measurement covers the
		// full pipeline rather than unbounded queue growth.
		if i%64 == 63 {
			m.Drain()
		}
	}
	m.Drain()
	b.SetBytes(int64(64 * trace.RecordSize))
}

func BenchmarkTraceEncode(b *testing.B) {
	w := trace.NewWriter(io.Discard)
	r := trace.Record{Node: 1, Kind: trace.KindSend, Tag: 9, Time: 12345, Payload: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceMerge(b *testing.B) {
	const nodes = 8
	const perNode = 1000
	traces := make([][]trace.Record, nodes)
	for n := range traces {
		traces[n] = make([]trace.Record, perNode)
		for i := range traces[n] {
			traces[n][i] = trace.Record{Node: int32(n), Time: int64(i*nodes + n)}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := trace.Merge(traces...)
		if len(out) != nodes*perNode {
			b.Fatal("merge lost records")
		}
	}
}

func BenchmarkTPWireRoundTrip(b *testing.B) {
	msg := tp.DataMessage(0, make([]trace.Record, 32))
	var buf writableBuffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tp.WriteMessage(&buf, msg); err != nil {
			b.Fatal(err)
		}
		if _, err := tp.ReadMessage(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(32 * trace.RecordSize))
}

func BenchmarkW3Search(b *testing.B) {
	search, err := paradyn.NewW3Search(map[paradyn.Why]float64{
		paradyn.CPUBound: 15, paradyn.SyncBound: 15, paradyn.IOBound: 15,
	}, 20)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		target := benchW3Target{noise: rngpkg.New(uint64(i) + 1)}
		if _, _, err := search.Run(target); err != nil {
			b.Fatal(err)
		}
	}
}

// benchW3Target is a minimal in-memory target: node 2 process 1 is
// sync-bound.
type benchW3Target struct{ noise *rngpkg.Stream }

func (t benchW3Target) Nodes() []int32                     { return []int32{0, 1, 2, 3} }
func (t benchW3Target) Processes(int32) []int32            { return []int32{0, 1, 2} }
func (t benchW3Target) Enable(paradyn.Why, paradyn.Focus)  {}
func (t benchW3Target) Disable(paradyn.Why, paradyn.Focus) {}
func (t benchW3Target) Sample(w paradyn.Why, f paradyn.Focus) float64 {
	base := t.noise.Uniform(0, 10)
	if w != paradyn.SyncBound {
		return base
	}
	switch {
	case f.Node < 0:
		return 20 + base
	case f.Node == 2 && f.Process < 0:
		return 30 + base
	case f.Node == 2 && f.Process == 1:
		return 80 + base
	}
	return base
}

func BenchmarkVistaAnalytic(b *testing.B) {
	cfg := vista.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := vista.Analytic(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeTrace(b *testing.B) {
	// An 8-node trace with blocks and a message ring.
	var rs []trace.Record
	tm := int64(0)
	for round := 0; round < 200; round++ {
		for n := int32(0); n < 8; n++ {
			tm += 100
			rs = append(rs,
				trace.Record{Node: n, Kind: trace.KindBlockIn, Time: tm},
				trace.Record{Node: n, Kind: trace.KindBlockOut, Time: tm + 50},
				trace.Record{Node: n, Kind: trace.KindSend, Tag: uint16(round*8) + uint16(n), Time: tm + 60, Payload: int64((n + 1) % 8)},
				trace.Record{Node: (n + 1) % 8, Kind: trace.KindRecv, Tag: uint16(round*8) + uint16(n), Time: tm + 70, Payload: int64(n)},
			)
		}
	}
	trace.SortByTime(rs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analyze.Analyze(rs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterRing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cluster.Config{
			Nodes: 4, ProcsPerNode: 2,
			Policy: cluster.BufferedFAOF, BufferCapacity: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.RunRing(20, 1000); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Trace(); err != nil {
			b.Fatal(err)
		}
		c.Close()
	}
}

func BenchmarkWorkloadCharacterize(b *testing.B) {
	st := rngpkg.New(1)
	gaps := make([]float64, 10_000)
	for i := range gaps {
		gaps[i] = st.Exp(0.1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Characterize(gaps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompensate(b *testing.B) {
	var rs []trace.Record
	tm := int64(0)
	for i := 0; i < 2000; i++ {
		tm += 1000
		kind := trace.KindUser
		payload := int64(0)
		if i%50 == 49 {
			kind = trace.KindFlush
			payload = 10_000
		}
		rs = append(rs, trace.Record{Node: int32(i % 4), Kind: kind, Time: tm, Payload: payload})
	}
	opt := trace.CompensateOptions{PerEventOverheadNs: 10, DropFlushRecords: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Compensate(rs, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// writableBuffer is a minimal growable read/write buffer avoiding
// bytes.Buffer's interface indirection in the benchmark loop.
type writableBuffer struct {
	data []byte
	off  int
}

func (w *writableBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

func (w *writableBuffer) Read(p []byte) (int, error) {
	if w.off >= len(w.data) {
		return 0, io.EOF
	}
	n := copy(p, w.data[w.off:])
	w.off += n
	return n, nil
}

func (w *writableBuffer) Reset() { w.data = w.data[:0]; w.off = 0 }

// --- pooled hot paths ----------------------------------------------

// recycleConn consumes messages and recycles pooled batches, as the
// ISM does after dispatch. Without the recycle the pool would stay
// empty and every flush would allocate.
type recycleConn struct{}

func (recycleConn) Send(m tp.Message) error   { tp.Recycle(&m); return nil }
func (recycleConn) Recv() (tp.Message, error) { select {} }
func (recycleConn) Close() error              { return nil }

// BenchmarkCaptureFlush measures the LIS capture path including the
// pooled flush that fires every `capacity` records.
func BenchmarkCaptureFlush(b *testing.B) {
	l, err := lis.NewBuffered(0, 64, recycleConn{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	r := trace.Record{Kind: trace.KindUser}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Capture(r)
	}
}

// BenchmarkWireEncode measures TP frame encoding: the pooled
// WriteMessage path (reused encode buffer, batch returned to the pool)
// against building each frame in a fresh allocation.
func BenchmarkWireEncode(b *testing.B) {
	records := make([]trace.Record, 32)
	for i := range records {
		records[i] = trace.Record{Node: 1, Kind: trace.KindUser, Tag: uint16(i)}
	}
	b.Run("pooled", func(b *testing.B) {
		var buf writableBuffer
		b.ReportAllocs()
		b.SetBytes(int64(32 * trace.RecordSize))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			batch := flow.GetBatch(32)
			batch = append(batch, records...)
			if err := tp.WriteMessage(&buf, tp.PooledDataMessage(0, batch)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unpooled", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(32 * trace.RecordSize))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tp.AppendMessage(nil, tp.DataMessage(0, records)); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Columnar framing works on realistic streams: monotone timestamps,
	// a handful of kinds, small tag/payload deltas — the shape the
	// column encoders were built for.
	wireRecs := make([]trace.Record, 32)
	for i := range wireRecs {
		wireRecs[i] = trace.Record{
			Node: 1, Process: int32(i % 4), Kind: trace.KindUser,
			Tag: uint16(i % 8), Time: int64(1_000_000 + i*250),
			Logical: uint64(i + 1), Payload: int64(i),
		}
	}
	b.Run("columnar", func(b *testing.B) {
		var cc trace.ColumnCodec
		var buf []byte
		b.ReportAllocs()
		b.SetBytes(int64(32 * trace.RecordSize))
		b.ResetTimer()
		var frame int
		for i := 0; i < b.N; i++ {
			out, err := tp.AppendColumnarMessage(buf[:0], tp.DataMessage(0, wireRecs), &cc)
			if err != nil {
				b.Fatal(err)
			}
			buf, frame = out, len(out)
		}
		b.ReportMetric(float64(frame)/32, "wire-B/rec")
	})
	b.Run("columnar-decode", func(b *testing.B) {
		var cc trace.ColumnCodec
		frame, err := tp.AppendColumnarMessage(nil, tp.DataMessage(0, wireRecs), &cc)
		if err != nil {
			b.Fatal(err)
		}
		rd := bytes.NewReader(frame)
		b.ReportAllocs()
		b.SetBytes(int64(32 * trace.RecordSize))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset(frame)
			m, err := tp.ReadMessage(rd)
			if err != nil {
				b.Fatal(err)
			}
			tp.Recycle(&m)
		}
	})
}
