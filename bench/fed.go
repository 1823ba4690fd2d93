package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"prism/bench/gen"
	"prism/bench/oracle"
	"prism/bench/spans"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/lis"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/relay"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// Shape of the federated deployment.
const (
	leafLisCap   = 256
	uplinkBatch  = 512
	uplinkWindow = 4096 // replay window, unacked batches; never reached (see fed.close)
	leafPipe     = 64   // tp.Pipe depth between a leaf's LIS and the leaf, in batches
)

// fed is one built federated deployment: 2 generators, each through one
// lis.Buffered and a tp.Pipe into a leaf ISM (SISO, ordered, deferred
// causal), each leaf through a relay.Uplink over loopback TCP into one
// root relay, whose merged stream reaches the sink.
type fed struct {
	rc     runConfig
	stream *gen.Stream
	gens   [generators]*loadgen
	epoch  time.Time

	// relayReg holds the root relay and its session receiver; upReg the
	// uplinks and their sender sessions; txReg the uplink conns' wire
	// counters. Each leaf manager keeps its private registry: two in one
	// registry would share every ism.* counter.
	relayReg, upReg, txReg, lisReg *metrics.Registry

	root     *relay.Relay
	ln       *tp.Listener
	accepted []tp.Conn
	dialed   []tp.Conn
	leaves   [generators]*ism.ISM
	uplinks  [generators]*relay.Uplink
	lis      [generators]*lis.Buffered
	pipes    []tp.Conn
	snk      *sink

	maxTime [generators]atomic.Int64 // highest Time each leaf has forwarded

	wireBytes uint64 // tp.bytes_tx of the uplink conns after the warm-up cycle
	wireRecs  uint64
}

func buildFed(rc runConfig) (*fed, error) {
	f := &fed{
		rc: rc, epoch: time.Now(),
		relayReg: metrics.NewRegistry(), upReg: metrics.NewRegistry(), txReg: metrics.NewRegistry(),
		lisReg: metrics.NewRegistry(),
	}
	f.stream = gen.New(rc.seed, rc.block)
	f.snk = newSink(f.epoch, gen.MarkLeaf256, rc.rec)
	f.snk.Lamport = true
	f.snk.RootOrder = true

	f.root = relay.New(relay.Config{Root: true, Downstreams: generators, Metrics: f.relayReg})
	f.root.SubscribeBatch("bench", f.snk.onBatch)

	ln, err := tp.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.ln = ln
	acceptErr := make(chan error, 1)
	go func() {
		for i := 0; i < generators; i++ {
			c, err := ln.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			f.accepted = append(f.accepted, c)
			if rc.rec != nil {
				c = spans.WrapConn(c, rc.rec, spRelayAck, spRelayRecv)
			}
			f.root.Serve(c)
		}
		acceptErr <- nil
	}()

	parts := f.stream.Split(generators)
	for g := 0; g < generators; g++ {
		leaf := ism.New(ism.Config{
			Buffering: ism.SISO, Ordered: true, DeferCausal: true,
			Overflow: flow.Block, InputCapacity: ismInputCap,
		}, nil)
		f.leaves[g] = leaf

		c, err := tp.Dial(ln.Addr(), tp.WithConnMetrics(f.txReg))
		if err != nil {
			return nil, err
		}
		f.dialed = append(f.dialed, c)
		var upConn tp.Conn = c
		var traced *spans.Conn
		if rc.rec != nil {
			traced = spans.WrapConn(c, rc.rec, spUplinkSend, spUplinkAck)
			upConn = traced
		}
		up := relay.NewUplink(int32(1000+g), upConn, relay.UplinkConfig{
			BatchSize: uplinkBatch, Window: uplinkWindow, Metrics: f.upReg,
		})
		f.uplinks[g] = up
		maxTime := &f.maxTime[g]
		push := func(rs []trace.Record) {
			up.Push(rs)
			maxTime.Store(rs[len(rs)-1].Time)
		}
		if rc.rec != nil {
			rec := rc.rec
			inner := push
			push = func(rs []trace.Record) {
				id := rec.Reserve()
				start := rec.Now()
				traced.Parent.Store(id)
				inner(rs)
				traced.Parent.Store(spans.NoParent)
				rec.Finish(id, spans.Span{Name: spUplinkPush, Parent: spans.NoParent, Node: rs[0].Node, Seq: rs[0].Logical, Start: start, End: rec.Now()})
			}
		}
		leaf.SubscribeBatch("uplink", push)

		lisSide, leafSide := tp.Pipe(leafPipe)
		f.pipes = append(f.pipes, lisSide, leafSide)
		leaf.Serve(leafSide)
		b, err := lis.NewBuffered(int32(g), leafLisCap, lisSide,
			lis.WithAsyncFlush(lisPending, flow.Block, nil), lis.WithMetrics(f.lisReg))
		if err != nil {
			return nil, err
		}
		f.lis[g] = b
		lg := &loadgen{
			delivered: &f.snk.byGen[g],
			cur:       f.stream.Cursor(parts[g]), epoch: f.epoch, mark: gen.MarkLeaf256,
			ring: f.snk.stamps, rec: rc.rec,
		}
		per := gen.Nodes / generators
		for n := g * per; n < (g+1)*per; n++ {
			lg.sinks[n] = b
		}
		lg.flush = func() { _ = b.Flush() } // async: queues the batch, never fails
		f.gens[g] = lg
	}
	if err := <-acceptErr; err != nil {
		return nil, err
	}
	// The uplink's ack loop is the Recv that lands the relay's advert.
	deadline := time.Now().Add(5 * time.Second)
	for g, c := range f.dialed {
		for !tp.ColumnarActive(c) {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("columnar framing never negotiated on uplink %d", g)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return f, nil
}

func (f *fed) emitted() (oracle.Sum, [gen.Sources]uint64) { return emittedBy(f.gens[:]) }

// seal drains the tree end to end: LIS buffers flushed, each leaf
// drained into its uplink, every uplink flushed and marked at a Time no
// record of either leaf exceeds (a lane's watermark holds the other
// lane's tail until it passes it), then the root drained.
func (f *fed) seal() error {
	var leafEmitted [generators]uint64
	for g, lg := range f.gens {
		if err := f.lis[g].Flush(); err != nil {
			return err
		}
		leafEmitted[g] = lg.sum.Count
	}
	deadline := time.Now().Add(drainTimeout)
	for g, leaf := range f.leaves {
		for leaf.Stats().Dispatched < leafEmitted[g] {
			if time.Now().After(deadline) {
				return fmt.Errorf("leaf %d dispatched %d of %d records", g, leaf.Stats().Dispatched, leafEmitted[g])
			}
			time.Sleep(100 * time.Microsecond)
		}
		leaf.Drain()
	}
	var high int64
	for g := range f.maxTime {
		if t := f.maxTime[g].Load(); t > high {
			high = t
		}
	}
	for _, up := range f.uplinks {
		up.Flush()
		up.Mark(high + 1)
	}
	sum, _ := f.emitted()
	if err := f.snk.waitDelivered(sum.Count, drainTimeout); err != nil {
		return fmt.Errorf("%w (relay %+v)", err, f.root.Stats())
	}
	return nil
}

// warmup pushes one cycle of the block through the tree and seals it;
// the uplinks' wire counters over that fixed prefix repeat exactly for a
// seed.
func (f *fed) warmup() error {
	warmCycle(f.gens[:])
	if err := f.seal(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	snap := f.txReg.Snapshot()
	f.wireBytes = uint64(snap.Value("tp.bytes_tx"))
	f.wireRecs = uint64(snap.Value("tp.recs_tx"))
	return nil
}

// run measures one closed-loop window of seconds and seals the tree.
func (f *fed) run(seconds int) (wiredRun, error) {
	var cut cutoff
	res := measureWindow(f.snk, f.gens[:], seconds, time.Now(),
		func(g *loadgen) { g.closedLoop(&cut) }, func() { cut.stop.Store(true) })
	return res, f.seal()
}

func (f *fed) close() error {
	var first error
	note := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, b := range f.lis {
		if b != nil {
			note(b.Close())
		}
	}
	for _, leaf := range f.leaves {
		if leaf != nil {
			note(leaf.Close())
		}
	}
	for _, c := range f.pipes {
		note(c.Close())
	}
	for _, up := range f.uplinks {
		if up != nil {
			up.WaitAcked(5 * time.Second)
			note(up.Err())
			note(up.Close())
		}
	}
	if f.root != nil {
		note(f.root.Close())
	}
	if f.ln != nil {
		note(f.ln.Close())
	}
	return first
}
