package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prism/bench/gen"
	"prism/bench/oracle"
	"prism/bench/spans"
	"prism/internal/isruntime/event"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// Span names of the traced run, indexed by spans.Span.Name.
const (
	spLisFlush uint8 = iota
	spTpSend
	spTpRecv
	spIsmPipeline
	spSink
	spSpoolWrite
	spTierAppend
	spUplinkPush
	spUplinkSend
	spRelayRecv
	spRelayAck
	spUplinkAck
	spScan
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spLisFlush: "lis.flush", spTpSend: "tp.send", spTpRecv: "tp.recv",
	spIsmPipeline: "ism.pipeline", spSink: "sink", spSpoolWrite: "spool.write",
	spTierAppend: "tier.append", spUplinkPush: "uplink.push", spUplinkSend: "uplink.send",
	spRelayRecv: "relay.recv", spRelayAck: "relay.ack", spUplinkAck: "uplink.ack",
	spScan: "scan",
}

// spanCapacity pre-sizes the span buffer: a 10 s traced run of the
// paced workload (8 k batches/s, about six spans each) fits with room.
const spanCapacity = 1 << 21

func newRecorder() *spans.Recorder { return spans.NewRecorder(spanCapacity, spanNames[:]) }

// stampRing carries wall-clock stamps from the load generators to the
// sink without touching the records: slot [source][seq mod ringSize].
// It has to be deeper than the flush marks of one source that can be in
// flight at once, which the closed loop's window bounds far below this.
const ringSize = 1 << 13

type stampRing [gen.Sources][ringSize]atomic.Int64

// recvRing carries, for the traced run, the time each LIS batch's Recv
// returned on the manager's side (and the span that timed it) to the
// sink, keyed like stampRing by the batch's first record.
type recvSlot struct {
	seq  atomic.Uint64 // capture sequence + 1; 0 is empty
	t    atomic.Int64
	span atomic.Int32
}

type recvRing [gen.Sources][ringSize]recvSlot

func (rr *recvRing) note(m *tp.Message, span int32, end int64) {
	if len(m.Records) == 0 {
		return
	}
	r := &m.Records[0]
	if uint32(r.Node) >= gen.Nodes || uint32(r.Process) >= gen.Procs {
		return
	}
	s := &rr[gen.Source(r)][r.Logical%ringSize]
	s.t.Store(end)
	s.span.Store(span)
	s.seq.Store(r.Logical + 1)
}

// maxSamples bounds each latency sample buffer.
const maxSamples = 1 << 20

// sink is the counting, checking subscriber at the end of every wired
// workload. Its callback runs on the dispatching goroutine only.
type sink struct {
	oracle.Sink
	delivered atomic.Uint64
	// byGen counts what has been delivered of each generator's share
	// (its nodes); the closed loop's window is held against it.
	byGen      [generators]atomic.Uint64
	byGenLocal [generators]uint64

	epoch time.Time
	mark  uint16
	// Open loop: latency runs from a record's due time, which is
	// epoch + (Time - base). Closed loop: from the generator's stamp.
	paced  bool
	base   int64
	stamps *stampRing

	sampling atomic.Bool // true inside the measured window
	latency  []int64

	// Traced run only.
	rec      *spans.Recorder
	recvs    *recvRing
	pipeline []int64 // manager-side Recv return -> sink, ns

	// archive, when set, receives every dispatched batch after the
	// checks (the on-line deployment's storage tier); archiveSpan is the
	// same target's decorator in the traced run.
	archive     flow.Spill
	archiveSpan *spans.Spill
	archiveErr  error
}

func newSink(epoch time.Time, mark uint16, rec *spans.Recorder) *sink {
	s := &sink{epoch: epoch, mark: mark, stamps: new(stampRing), rec: rec, latency: make([]int64, 0, maxSamples)}
	if rec != nil {
		s.recvs = new(recvRing)
		s.pipeline = make([]int64, 0, maxSamples)
	}
	return s
}

func (s *sink) onBatch(rs []trace.Record) {
	if s.rec != nil {
		s.onBatchTraced(rs)
		return
	}
	for i := range rs {
		s.one(&rs[i])
	}
	s.done(rs)
}

// one checks one record and samples latency on a flush trigger.
func (s *sink) one(r *trace.Record) {
	if r.Tag&s.mark != 0 && r.Kind != trace.KindSend && r.Kind != trace.KindRecv {
		s.sample(r)
	}
	s.Observe(r)
	s.byGenLocal[(uint32(r.Node)/(gen.Nodes/generators))%generators]++
}

// done publishes a batch's counts and hands it to the archive.
func (s *sink) done(rs []trace.Record) {
	if s.archive != nil {
		if err := s.archive.Append(rs...); err != nil && s.archiveErr == nil {
			s.archiveErr = err
		}
	}
	for g := range s.byGen {
		s.byGen[g].Store(s.byGenLocal[g])
	}
	s.delivered.Add(uint64(len(rs)))
}

// sample takes one latency sample from a flush-trigger record.
func (s *sink) sample(r *trace.Record) {
	if !s.sampling.Load() || len(s.latency) == cap(s.latency) || uint32(r.Node) >= gen.Nodes || uint32(r.Process) >= gen.Procs {
		return
	}
	now := int64(time.Since(s.epoch))
	var from int64
	if s.paced {
		from = r.Time - s.base
	} else {
		src := gen.Source(r)
		from = s.stamps[src][s.Seen(src)%ringSize].Load()
	}
	s.latency = append(s.latency, now-from)
}

func (s *sink) onBatchTraced(rs []trace.Record) {
	id := s.rec.Reserve()
	start := s.rec.Now()
	node, seq := int32(-1), uint64(0)
	if len(rs) > 0 {
		node, seq = rs[0].Node, rs[0].Logical
	}
	for i := range rs {
		r := &rs[i]
		if uint32(r.Node) < gen.Nodes && uint32(r.Process) < gen.Procs {
			src := gen.Source(r)
			n := s.Seen(src)
			if slot := &s.recvs[src][n%ringSize]; slot.seq.Load() == n+1 {
				t := slot.t.Load()
				now := s.rec.Now()
				if s.sampling.Load() && len(s.pipeline) < cap(s.pipeline) {
					s.pipeline = append(s.pipeline, now-t)
				}
				s.rec.Add(spans.Span{Name: spIsmPipeline, Parent: slot.span.Load(), Node: r.Node, Seq: n, Start: t, End: now})
			}
		}
		s.one(r)
	}
	if s.archiveSpan != nil {
		s.archiveSpan.Parent.Store(id)
	}
	s.done(rs)
	s.rec.Finish(id, spans.Span{Name: spSink, Parent: spans.NoParent, Node: node, Seq: seq, Start: start, End: s.rec.Now()})
}

// waitDelivered blocks until the sink has seen want records.
func (s *sink) waitDelivered(want uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for s.delivered.Load() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("sink saw %d of %d records after %s", s.delivered.Load(), want, timeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// loopWindow is the closed loop's concurrency: how many records each
// generator may have emitted but not yet seen dispatched. It is wide
// enough to keep every stage of the pipeline busy (64 flushes of 256)
// and narrow enough that queueing, and so latency and memory, is set by
// the loop and not by however much the loopback sockets agree to
// buffer.
const loopWindow = 16384

// loadgen is one generator goroutine's state: its share of the stream,
// where it captures into, and the digest of what it emitted.
type loadgen struct {
	cur       *gen.Cursor
	sinks     [gen.Nodes]event.Sink // capture target per node
	delivered *atomic.Uint64        // the sink's count of this generator's records
	epoch     time.Time
	mark      uint16
	ring      *stampRing
	rec       *spans.Recorder
	// flush pushes out whatever this generator's LIS buffers still hold.
	// A generator that stops emitting calls it: the other may be waiting,
	// window full, on receives held for sends sitting in those buffers.
	flush func()

	sum       oracle.Sum
	perSource [gen.Sources]uint64
	late      []int64 // paced: how late each flush-trigger record was emitted, ns
}

func (g *loadgen) emit(r trace.Record) {
	g.sum.Add(&r)
	g.perSource[gen.Source(&r)]++
	if r.Tag&g.mark == 0 || r.Kind == trace.KindSend || r.Kind == trace.KindRecv {
		g.sinks[r.Node].Capture(r)
		return
	}
	// A flush trigger: stamp it for the sink's latency sample, and in
	// the traced run time the Capture call, which carries the flush and
	// whatever back-pressure the pending stage applies.
	now := int64(time.Since(g.epoch))
	g.ring[gen.Source(&r)][r.Logical%ringSize].Store(now)
	if g.rec == nil {
		g.sinks[r.Node].Capture(r)
		return
	}
	start := g.rec.Now()
	g.sinks[r.Node].Capture(r)
	g.rec.Add(spans.Span{Name: spLisFlush, Parent: spans.NoParent, Node: r.Node, Seq: r.Logical, Start: start, End: g.rec.Now()})
}

// awaitWindow blocks while the generator has a full window of records
// in flight, unless stop (which may be nil) is set meanwhile.
func (g *loadgen) awaitWindow(stop *atomic.Bool) {
	for g.sum.Count-g.delivered.Load() > loopWindow && (stop == nil || !stop.Load()) {
		time.Sleep(20 * time.Microsecond)
	}
}

// emitN emits the next n records closed-loop.
func (g *loadgen) emitN(n int) {
	for i := 0; i < n; i++ {
		if i&63 == 0 {
			g.awaitWindow(nil)
		}
		g.emit(g.cur.Next())
	}
	g.flush()
}

// cutoff lets the closed-loop generators stop on one consistent cut of
// the stream. Stopping each wherever it happens to be would strand
// receives whose sends the other generator never got to emit: the
// causal merge holds them, and their sources, for ever. Instead every
// generator that sees stop reports how far along the schedule it is,
// waits for the others, and runs on to the furthest Time reported.
type cutoff struct {
	stop    atomic.Bool
	arrived atomic.Int32
	high    atomic.Int64
}

func (c *cutoff) agree(t int64) int64 {
	for {
		cur := c.high.Load()
		if t <= cur || c.high.CompareAndSwap(cur, t) {
			break
		}
	}
	c.arrived.Add(1)
	for c.arrived.Load() < generators {
		time.Sleep(20 * time.Microsecond)
	}
	return c.high.Load()
}

// closedLoop emits records, a window at most in flight, until c.stop is
// set, then up to the cut the generators agree on.
func (g *loadgen) closedLoop(c *cutoff) {
	for i := 0; ; i++ {
		if i&63 == 0 {
			if c.stop.Load() {
				break
			}
			g.awaitWindow(&c.stop)
		}
		g.emit(g.cur.Next())
	}
	// The tail to the cut is emitted without the window: what it waits
	// for may be held behind a send in the other generator's tail.
	for cut := c.agree(g.cur.PeekTime()); g.cur.PeekTime() < cut; {
		g.emit(g.cur.Next())
	}
	g.flush()
}

// pacedTick is how long the open-loop generator asks to sleep between
// bursts. It cannot spin to a finer schedule: the generators share two
// cores with the system under test. When every P is idle the runtime
// waits for the timer with a millisecond-granular poll, so at a light
// load a tick lasts up to 1 ms; sleeping in the kernel instead
// (syscall.Nanosleep) pins the generators' Ps and starves the pipeline
// for sysmon's 10 ms. How late the generator ran is reported.
const pacedTick = 100 * time.Microsecond

// paced emits every record whose due time (Time - base) is below until
// no earlier than start + due, and records how late each flush trigger
// went out.
func (g *loadgen) paced(start time.Time, base, until int64) {
	for {
		now := int64(time.Since(start))
		for {
			due := g.cur.PeekTime() - base
			if due >= until {
				return
			}
			if due > now {
				break
			}
			r := g.cur.Next()
			if r.Tag&g.mark != 0 && len(g.late) < cap(g.late) {
				g.late = append(g.late, int64(time.Since(start))-due)
			}
			g.emit(r)
		}
		time.Sleep(pacedTick)
	}
}

// emittedBy is the digest and per-source count of everything the
// generators have emitted. Call it with the generators stopped.
func emittedBy(gens []*loadgen) (oracle.Sum, [gen.Sources]uint64) {
	var sum oracle.Sum
	var per [gen.Sources]uint64
	for _, g := range gens {
		sum.Merge(g.sum)
		for s, n := range g.perSource {
			per[s] += n
		}
	}
	return sum, per
}

// warmCycle has every generator emit one cycle of its part of the block,
// closed-loop and concurrently.
func warmCycle(gens []*loadgen) {
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.emitN(g.cur.Len())
		}()
	}
	wg.Wait()
}

// wiredRun is what one measured window of a wired workload yields.
type wiredRun struct {
	win       window
	slices    []float64 // records reaching the sink per second, per 1 s slice
	delivered uint64    // records reaching the sink inside the window
	offered   []uint64  // paced: cumulative records due by the end of each slice
	reached   []uint64  // cumulative records at the sink by the end of each slice
}

// measureWindow runs body once per generator, each on its own
// goroutine, and measures the seconds from start in 1 s slices of what
// reaches the sink; then it calls stop and waits for the generators.
func measureWindow(snk *sink, gens []*loadgen, seconds int, start time.Time, body func(*loadgen), stop func()) wiredRun {
	var res wiredRun
	var wg sync.WaitGroup
	before := snk.delivered.Load()
	snk.sampling.Store(true)
	res.win = startWindow()
	for _, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(g)
		}()
	}
	prev := before
	for s := 1; s <= seconds; s++ {
		time.Sleep(time.Until(start.Add(time.Duration(s) * time.Second)))
		now := snk.delivered.Load()
		res.slices = append(res.slices, float64(now-prev))
		res.reached = append(res.reached, now-before)
		prev = now
	}
	res.win.stop()
	res.delivered = prev - before
	snk.sampling.Store(false)
	stop()
	wg.Wait()
	return res
}
