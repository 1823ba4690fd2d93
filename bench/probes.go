package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prism/bench/gen"
	"prism/internal/isruntime/event"
	"prism/internal/isruntime/fault"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/lis"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/relay"
	"prism/internal/isruntime/storage"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// Layer probes: each drives one package's public functions alone, with
// the workloads' own record stream, and reports a cost per record or
// per batch — the median of probeReps timed repetitions (one, in the
// smoke run) after one discarded warm-up repetition. Single-goroutine
// probes are timed by the wall clock; probes that start goroutines are
// timed by process CPU, so what the ledger sums is always CPU.

const (
	probeReps    = 11
	probeBatches = 256 // LIS batches per repetition of a batch-driven probe
	blockRecords = tierSegment
)

func medianOf(reps int, fn func() float64) float64 {
	fn()
	v := make([]float64, reps)
	for i := range v {
		v[i] = fn()
	}
	return median(v)
}

func wallPer(units int, fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0)) / float64(units)
}

func cpuPer(units int, fn func()) float64 {
	c0 := cpuNs()
	fn()
	return float64(cpuNs()-c0) / float64(units)
}

func mallocsPer(units int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(units)
}

// nullConn is a tp.Conn that consumes everything sent to it.
type nullConn struct {
	done chan struct{}
	once sync.Once
}

func newNullConn() *nullConn { return &nullConn{done: make(chan struct{})} }

func (c *nullConn) Send(m tp.Message) error { tp.Recycle(&m); return nil }
func (c *nullConn) Recv() (tp.Message, error) {
	<-c.done
	return tp.Message{}, io.EOF
}
func (c *nullConn) Close() error { c.once.Do(func() { close(c.done) }); return nil }

// batcher cuts the endless stream into the batches a synchronous LIS
// would flush: size consecutive records of one node (or, with leaves
// set, of one half of the nodes).
type batcher struct {
	cur    *gen.Cursor
	size   int
	leaves bool
	bufs   [gen.Nodes][]trace.Record
}

func (b *batcher) next() (int32, flow.Batch) {
	for {
		r := b.cur.Next()
		k := r.Node
		if b.leaves {
			k = r.Node / (gen.Nodes / generators)
		}
		b.bufs[k] = append(b.bufs[k], r)
		if len(b.bufs[k]) == b.size {
			out := append(flow.GetBatch(b.size), b.bufs[k]...)
			b.bufs[k] = b.bufs[k][:0]
			return k, out
		}
	}
}

type nodeBatch struct {
	node int32
	recs flow.Batch
}

func (b *batcher) take(n int) []nodeBatch {
	out := make([]nodeBatch, n)
	for i := range out {
		out[i].node, out[i].recs = b.next()
	}
	return out
}

// rest returns what the batcher still buffers as short batches, like a
// LIS flushed at the end of a run, so that a consumer that merges by
// time has every record up to the last one taken.
func (b *batcher) rest() []nodeBatch {
	var out []nodeBatch
	for k := range b.bufs {
		if len(b.bufs[k]) > 0 {
			out = append(out, nodeBatch{node: int32(k), recs: append(flow.GetBatch(len(b.bufs[k])), b.bufs[k]...)})
			b.bufs[k] = b.bufs[k][:0]
		}
	}
	return out
}

// runProbes runs every layer probe on stream, reps timed repetitions
// each, and returns the readings by metric name. dir is scratch space
// for the file-backed ones.
func runProbes(stream *gen.Stream, dir string, reps int) (map[string]float64, error) {
	out := map[string]float64{}
	p := &prober{stream: stream, dir: dir, reps: reps, out: out}
	for _, fn := range []func() error{
		p.event, p.lis, p.intrusion, p.flow, p.tp, p.loopback, p.trace,
		p.ism, p.fault, p.relay, p.storage, p.metrics, p.loadgen,
	} {
		if err := fn(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

type prober struct {
	stream *gen.Stream
	dir    string
	reps   int // timed repetitions behind each reading
	out    map[string]float64
}

func (p *prober) cursor() *gen.Cursor { return p.stream.Cursor(p.stream.Recs) }

func (p *prober) event() error {
	const n = 1 << 16
	var clock event.VirtualClock
	s := event.NewSensor(0, 0, &clock, event.SinkFunc(func(trace.Record) {}))
	p.out["event.emit_ns_per_rec"] = medianOf(p.reps, func() float64 {
		return wallPer(n, func() {
			for i := 0; i < n; i++ {
				s.Emit(trace.KindUser, uint16(i), int64(i))
			}
		})
	})
	return nil
}

func (p *prober) lis() error {
	const n = 1 << 16
	for _, c := range []struct {
		name string
		size int
	}{{"lis.capture_ns_per_rec", 256}, {"lis.capture_small_ns_per_rec", 32}} {
		conn := newNullConn()
		b, err := lis.NewBuffered(0, c.size, conn)
		if err != nil {
			return err
		}
		cur := p.cursor()
		recs := make([]trace.Record, n)
		run := func() {
			for i := range recs {
				b.Capture(recs[i])
			}
		}
		p.out[c.name] = medianOf(p.reps, func() float64 {
			recs = cur.Fill(recs[:0], n)
			return wallPer(n, run)
		})
		if c.size == 256 {
			recs = cur.Fill(recs[:0], n)
			p.out["lis.allocs_per_rec"] = mallocsPer(n, run)
		}
		if err := b.Close(); err != nil {
			return err
		}
	}
	return nil
}

// intrusion measures what one probe costs the instrumented thread: a
// CPU-bound work loop timed with RUSAGE_THREAD on a locked OS thread,
// with and without a Sensor.Emit into a synchronous lis.Buffered per
// iteration. The difference per iteration is the LIS's direct
// perturbation of the application (the paper's intrusion), flush cost
// amortised in.
func (p *prober) intrusion() error {
	const iters = 1 << 19
	conn := newNullConn()
	b, err := lis.NewBuffered(0, 256, conn)
	if err != nil {
		return err
	}
	var clock event.VirtualClock
	s := event.NewSensor(0, 0, &clock, b)
	var sinkhole uint64
	work := func(probe bool) int64 {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		// The application's own work: four independent xorshift chains,
		// so the core's execution ports are busy and the probe's
		// instructions cannot hide in the gaps of one dependency chain.
		x := [4]uint64{88172645463325252, 2463534242, 1234567891011, 362436069}
		c0 := threadCPUNs()
		for i := 0; i < iters; i++ {
			for k := 0; k < 8; k++ {
				for j := range x {
					x[j] ^= x[j] << 13
					x[j] ^= x[j] >> 7
					x[j] ^= x[j] << 17
				}
			}
			if probe {
				s.Emit(trace.KindUser, uint16(i), int64(x[0]))
			}
		}
		sinkhole += x[0] ^ x[1] ^ x[2] ^ x[3]
		return threadCPUNs() - c0
	}
	p.out["lis.intrusion_ns_per_event"] = medianOf(p.reps, func() float64 {
		bare := work(false)
		return float64(work(true)-bare) / iters
	})
	_ = sinkhole
	return b.Close()
}

func (p *prober) flow() error {
	const n = 1 << 14
	batch := flow.GetBatch(256)
	q, err := flow.NewQueue[flow.Batch](64, flow.Block, nil)
	if err != nil {
		return err
	}
	p.out["flow.queue_ns_per_batch"] = medianOf(p.reps, func() float64 {
		return wallPer(n, func() {
			for i := 0; i < n; i++ {
				q.Push(batch)
				q.TryPop()
			}
		})
	})
	ring := flow.NewSPSC[flow.Batch](64)
	p.out["flow.spsc_ns_per_batch"] = medianOf(p.reps, func() float64 {
		return wallPer(n, func() {
			for i := 0; i < n; i++ {
				ring.TryPush(batch)
				ring.TryPop()
			}
		})
	})
	p.out["flow.pool_ns_per_batch"] = medianOf(p.reps, func() float64 {
		return wallPer(n, func() {
			for i := 0; i < n; i++ {
				flow.PutBatch(flow.GetBatch(256))
			}
		})
	})
	return nil
}

func (p *prober) tp() error {
	for _, c := range []struct {
		enc, dec string
		size     int
	}{
		{"tp.encode_ns_per_rec", "tp.decode_ns_per_rec", 256},
		{"tp.encode_small_ns_per_rec", "tp.decode_small_ns_per_rec", 32},
	} {
		bt := &batcher{cur: p.cursor(), size: c.size}
		batches := bt.take(probeBatches)
		n := probeBatches * c.size
		var cc trace.ColumnCodec
		var wire []byte
		var encErr error
		encode := func() {
			wire = wire[:0]
			for _, b := range batches {
				wire, encErr = tp.AppendColumnarMessage(wire, tp.DataMessage(b.node, b.recs), &cc)
			}
		}
		p.out[c.enc] = medianOf(p.reps, func() float64 { return wallPer(n, encode) })
		if encErr != nil {
			return encErr
		}
		var decErr error
		decode := func() {
			r := bytes.NewReader(wire)
			for range batches {
				m, err := tp.ReadMessage(r)
				if err != nil {
					decErr = err
					return
				}
				tp.Recycle(&m)
			}
		}
		p.out[c.dec] = medianOf(p.reps, func() float64 { return wallPer(n, decode) })
		if decErr != nil {
			return decErr
		}
		if c.size == 256 {
			p.out["tp.allocs_per_batch"] = mallocsPer(probeBatches, func() { encode(); decode() })
			var flat []byte
			p.out["tp.flat_roundtrip_ns_per_rec"] = medianOf(p.reps, func() float64 {
				return wallPer(n, func() {
					flat = flat[:0]
					for _, b := range batches {
						flat, encErr = tp.AppendMessage(flat, tp.DataMessage(b.node, b.recs))
					}
					r := bytes.NewReader(flat)
					for range batches {
						m, err := tp.ReadMessage(r)
						if err != nil {
							decErr = err
							return
						}
						tp.Recycle(&m)
					}
				})
			})
			if encErr != nil {
				return encErr
			}
			if decErr != nil {
				return decErr
			}
		}
	}
	return nil
}

// loopback sends 256-record batches over a real loopback TCP conn to a
// receiver that only recycles them: encode + syscalls + copy + decode,
// in process CPU per record.
func (p *prober) loopback() error {
	ln, err := tp.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	var got atomic.Uint64
	accepted := make(chan tp.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			got.Add(uint64(len(m.Records)))
			tp.Recycle(&m)
		}
	}()
	c, err := tp.Dial(ln.Addr())
	if err != nil {
		return err
	}
	defer c.Close()
	go func() {
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			tp.Recycle(&m)
		}
	}()
	peer, ok := <-accepted
	if !ok {
		return fmt.Errorf("loopback probe: accept failed")
	}
	defer peer.Close()
	for deadline := time.Now().Add(5 * time.Second); !tp.ColumnarActive(c); {
		if time.Now().After(deadline) {
			return fmt.Errorf("loopback probe: columnar framing never negotiated")
		}
		time.Sleep(100 * time.Microsecond)
	}
	bt := &batcher{cur: p.cursor(), size: 256}
	batches := bt.take(probeBatches)
	const rounds = 4
	n := rounds * probeBatches * 256
	var sendErr error
	p.out["tp.loopback_ns_per_rec"] = medianOf(p.reps, func() float64 {
		want := got.Load() + uint64(n)
		return cpuPer(n, func() {
			for round := 0; round < rounds; round++ {
				for _, b := range batches {
					if err := c.Send(tp.DataMessage(b.node, b.recs)); err != nil {
						sendErr = err
						return
					}
				}
			}
			for got.Load() < want {
				runtime.Gosched()
			}
		})
	})
	return sendErr
}

func (p *prober) trace() error {
	cur := p.cursor()
	block := cur.Fill(nil, blockRecords)
	var cc trace.ColumnCodec
	var cols []byte
	p.out["trace.colenc_ns_per_rec"] = medianOf(p.reps, func() float64 {
		return wallPer(blockRecords, func() { cols = cc.AppendColumns(cols[:0], block) })
	})
	dst := make([]trace.Record, blockRecords)
	var err error
	p.out["trace.coldec_ns_per_rec"] = medianOf(p.reps, func() float64 {
		return wallPer(blockRecords, func() { err = trace.DecodeColumns(cols, dst) })
	})
	if err != nil {
		return err
	}
	var seg []byte
	p.out["trace.segment_encode_ns_per_rec"] = medianOf(p.reps, func() float64 {
		return wallPer(blockRecords, func() { seg = trace.AppendSegment(seg[:0], block) })
	})
	var parsed trace.Segment
	p.out["trace.segment_decode_ns_per_rec"] = medianOf(p.reps, func() float64 {
		return wallPer(blockRecords, func() {
			if _, err = parsed.Parse(seg); err == nil {
				dst, err = parsed.AppendRecords(dst[:0])
			}
		})
	})
	if err != nil {
		return err
	}

	const n = 1 << 16
	recs := make([]trace.Record, 0, n)
	buf := make([]trace.Record, 0, n)
	sq := trace.NewSequencer()
	p.out["trace.sequencer_ns_per_rec"] = medianOf(p.reps, func() float64 {
		recs = cur.Fill(recs[:0], n)
		return wallPer(n, func() {
			buf = buf[:0]
			for i := range recs {
				buf = sq.AddTo(buf, recs[i], recs[i].Logical)
			}
		})
	})
	// The causal merge sees the stream the way a manager does: whole
	// 256-record flushes of one node at a time, so a receive often
	// arrives a flush ahead of its send and is held, with its source,
	// until the send's flush comes. A stream in global order would never
	// hold anything.
	cm := trace.NewCausalMerger()
	bt := &batcher{cur: p.cursor(), size: 256}
	p.out["trace.causal_ns_per_rec"] = medianOf(p.reps, func() float64 {
		batches := bt.take(probeBatches)
		defer recycle(batches)
		return wallPer(probeBatches*256, func() {
			for _, b := range batches {
				buf = buf[:0]
				for i := range b.recs {
					buf = cm.AddTo(buf, b.recs[i])
				}
			}
		})
	})
	w := trace.NewWriter(io.Discard)
	p.out["trace.spool_ns_per_rec"] = medianOf(p.reps, func() float64 {
		return wallPer(n, func() {
			for i := 0; i < n; i += 256 {
				err = w.WriteAll(recs[i : i+256])
			}
		})
	})
	return err
}

// injectProbe pushes pre-cut LIS batches into a manager with Inject and
// drains it, in process CPU per record.
func (p *prober) injectProbe(cfg ism.Config, bt *batcher, sink func([]trace.Record)) (nsPerRec, allocsPerRec float64, err error) {
	m := ism.New(cfg, nil)
	m.SubscribeBatch("probe", sink)
	n := probeBatches * bt.size
	inject := func(batches []nodeBatch) {
		for i, b := range batches {
			m.Inject(tp.PooledDataMessage(b.node, b.recs))
			if i%64 == 63 {
				m.Drain()
			}
		}
		m.Drain()
	}
	nsPerRec = medianOf(p.reps, func() float64 {
		batches := bt.take(probeBatches)
		return cpuPer(n, func() { inject(batches) })
	})
	batches := bt.take(probeBatches)
	allocsPerRec = mallocsPer(n, func() { inject(batches) })
	return nsPerRec, allocsPerRec, m.Close()
}

func (p *prober) ism() error {
	var delivered uint64
	count := func(rs []trace.Record) { delivered += uint64(len(rs)) }
	base := ism.Config{Buffering: ism.MISO, Ordered: true, Overflow: flow.Block, InputCapacity: ismInputCap}

	cfg := base
	cfg.Shards = runtime.GOMAXPROCS(0)
	ns, allocs, err := p.injectProbe(cfg, &batcher{cur: p.cursor(), size: 256}, count)
	if err != nil {
		return err
	}
	p.out["ism.inject_ns_per_rec"], p.out["ism.allocs_per_rec"] = ns, allocs

	cfg = base
	cfg.Shards = 1
	if ns, _, err = p.injectProbe(cfg, &batcher{cur: p.cursor(), size: 256}, count); err != nil {
		return err
	}
	p.out["ism.inject_1shard_ns_per_rec"] = ns

	cfg = base
	cfg.Shards = runtime.GOMAXPROCS(0)
	if ns, _, err = p.injectProbe(cfg, &batcher{cur: p.cursor(), size: 32}, count); err != nil {
		return err
	}
	p.out["ism.inject_small_ns_per_rec"] = ns
	if delivered == 0 {
		return fmt.Errorf("ism probes delivered nothing")
	}
	return nil
}

// fault measures the session protocol alone: Session.Send of a
// 256-record batch over a tp.Pipe, Receiver.Filter on the far side, and
// the cumulative ack back.
func (p *prober) fault() error {
	a, b := tp.Pipe(64)
	sess := fault.NewSession(1, a, fault.SessionConfig{Window: 1024})
	recv := fault.NewReceiver(fault.ReceiverConfig{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			m, err := b.Recv()
			if err != nil {
				return
			}
			if !recv.Filter(b, m) {
				tp.Recycle(&m)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			m, err := sess.Recv()
			if err != nil {
				return
			}
			tp.Recycle(&m)
		}
	}()
	bt := &batcher{cur: p.cursor(), size: 256}
	var sendErr error
	p.out["fault.session_ns_per_batch"] = medianOf(p.reps, func() float64 {
		batches := bt.take(probeBatches)
		return cpuPer(probeBatches, func() {
			for _, nb := range batches {
				// The message names the session's node, not the records':
				// the receiver keeps one sequence per sending node.
				if err := sess.Send(tp.PooledDataMessage(1, nb.recs)); err != nil {
					sendErr = err
					return
				}
			}
			if !sess.WaitAcked(10 * time.Second) {
				sendErr = fmt.Errorf("session probe: %d batches never acknowledged", sess.Pending())
			}
		})
	})
	a.Close()
	wg.Wait()
	return sendErr
}

func (p *prober) relay() error {
	// Uplink.Push into a conn that consumes everything: batching, the
	// session's window copy and sequencing.
	conn := newNullConn()
	up := relay.NewUplink(1, conn, relay.UplinkConfig{BatchSize: uplinkBatch, Window: 64})
	bt := &batcher{cur: p.cursor(), size: 256, leaves: true}
	n := probeBatches * 256
	p.out["relay.uplink_push_ns_per_rec"] = medianOf(p.reps, func() float64 {
		batches := bt.take(probeBatches)
		defer recycle(batches)
		return wallPer(n, func() {
			for _, b := range batches {
				up.Push(b.recs)
			}
		})
	})
	if err := up.Close(); err != nil {
		return err
	}

	// Two uplinks into a root relay over pipes: uplink, session,
	// receiver, lane admission, watermark merge and root causal merge,
	// with no leaf in front and no TCP between.
	r := relay.New(relay.Config{Root: true, Downstreams: generators})
	var merged atomic.Uint64
	r.SubscribeBatch("probe", func(rs []trace.Record) { merged.Add(uint64(len(rs))) })
	var ups [generators]*relay.Uplink
	for g := range ups {
		near, far := tp.Pipe(64)
		r.Serve(far)
		ups[g] = relay.NewUplink(int32(1000+g), near, relay.UplinkConfig{BatchSize: uplinkBatch, Window: uplinkWindow})
	}
	// The relay's lane sequencers want contiguous per-source sequences
	// from zero, which a fresh cursor gives.
	bt = &batcher{cur: p.cursor(), size: 256, leaves: true}
	var mergeErr error
	p.out["relay.merge_ns_per_rec"] = medianOf(p.reps, func() float64 {
		batches := append(bt.take(probeBatches), bt.rest()...)
		defer recycle(batches)
		n := 0
		for _, b := range batches {
			n += len(b.recs)
		}
		want := merged.Load() + uint64(n)
		return cpuPer(n, func() {
			var high int64
			for _, b := range batches {
				ups[b.node].Push(b.recs)
				high = max(high, b.recs[len(b.recs)-1].Time)
			}
			for _, u := range ups {
				u.Mark(high + 1)
			}
			for deadline := time.Now().Add(drainTimeout); merged.Load() < want; {
				if time.Now().After(deadline) {
					mergeErr = fmt.Errorf("relay probe: merged %d of %d records", merged.Load(), want)
					return
				}
				runtime.Gosched()
			}
		})
	})
	for _, u := range ups {
		if err := u.Close(); err != nil && mergeErr == nil {
			mergeErr = err
		}
	}
	if err := r.Close(); err != nil && mergeErr == nil {
		mergeErr = err
	}
	if mergeErr != nil {
		return mergeErr
	}

	// The leaf manager alone: fed_tree's leaf configuration, Inject to a
	// sink that does nothing.
	ns, _, err := p.injectProbe(ism.Config{
		Buffering: ism.SISO, Ordered: true, DeferCausal: true,
		Overflow: flow.Block, InputCapacity: ismInputCap,
	}, &batcher{cur: p.cursor(), size: 256, leaves: true}, func([]trace.Record) {})
	p.out["relay.leaf_ns_per_rec"] = ns
	return err
}

func recycle(batches []nodeBatch) {
	for _, b := range batches {
		flow.PutBatch(b.recs)
	}
}

func (p *prober) storage() error {
	const n = 1 << 18 // 32 segments: four compaction rounds
	for _, c := range []struct {
		name string
		dir  string
	}{
		{"storage.append_ns_per_rec", ""},
		{"storage.append_file_ns_per_rec", filepath.Join(p.dir, "probe-tier")},
	} {
		cur := p.cursor()
		batch := make([]trace.Record, 0, storeBatch)
		var err error
		ns := medianOf(p.reps, func() float64 {
			if c.dir != "" {
				if err = os.RemoveAll(c.dir); err != nil {
					return 0
				}
			}
			var t *storage.Tiered
			t, err = storage.NewTiered(storage.TieredConfig{
				HotCapacity: tierHot, SegmentRecords: tierSegment, WarmLimit: tierWarm, Dir: c.dir,
			})
			if err != nil {
				return 0
			}
			v := cpuPer(n, func() {
				for i := 0; i < n && err == nil; i += storeBatch {
					batch = cur.Fill(batch[:0], storeBatch)
					err = t.Append(batch...)
				}
				if err == nil {
					err = t.Flush()
				}
				waitCompacted(t)
			})
			if cerr := t.Close(); err == nil {
				err = cerr
			}
			return v
		})
		if err != nil {
			return err
		}
		p.out[c.name] = ns
		if c.dir != "" {
			if err := os.RemoveAll(c.dir); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *prober) metrics() error {
	const n = 1 << 18
	reg := metrics.NewRegistry()
	ctr := reg.Counter("probe.counter")
	p.out["metrics.counter_inc_ns"] = medianOf(p.reps, func() float64 {
		return wallPer(n, func() {
			for i := 0; i < n; i++ {
				ctr.Inc()
			}
		})
	})
	h := reg.Histogram("probe.histogram")
	p.out["metrics.histogram_observe_ns"] = medianOf(p.reps, func() float64 {
		return wallPer(n, func() {
			for i := 0; i < n; i++ {
				h.Observe(int64(i))
			}
		})
	})
	// A registry the size of a running manager's: about 64 metrics.
	for i := 0; i < 64; i++ {
		reg.Counter(fmt.Sprintf("probe.filler%02d", i))
	}
	const snaps = 256
	p.out["metrics.snapshot_us"] = medianOf(p.reps, func() float64 {
		return wallPer(snaps, func() {
			for i := 0; i < snaps; i++ {
				reg.Snapshot()
			}
		})
	}) / 1e3
	return nil
}

// loadgen measures the benchmark's own generator — cursor, digest,
// flush-mark stamp — capturing into a sink that does nothing, so its
// share of every wired workload's cpu_ns_per_rec is known.
func (p *prober) loadgen() error {
	const n = 1 << 18
	var delivered atomic.Uint64
	g := &loadgen{
		cur: p.cursor(), delivered: &delivered, epoch: time.Now(),
		mark: gen.MarkNode256, ring: new(stampRing), flush: func() {},
	}
	// The sink does nothing but keep the window open.
	var seen uint64
	null := event.SinkFunc(func(trace.Record) {
		if seen++; seen&63 == 0 {
			delivered.Store(seen)
		}
	})
	for i := range g.sinks {
		g.sinks[i] = null
	}
	p.out["loadgen.ns_per_rec"] = medianOf(p.reps, func() float64 {
		return wallPer(n, func() { g.emitN(n) })
	})
	return nil
}
